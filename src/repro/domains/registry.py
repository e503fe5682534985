"""The domain registry: name → factory plus capability flags.

Callers that take a domain *name* (the CLI's ``solve`` command, the
:mod:`repro.exp` paper specs) used to import concrete domain classes
ad hoc; the registry centralises the lookup and records what each domain
can do, so new domains become available everywhere by registering once:

- ``has_kernel`` — the domain type implements :meth:`PlanningDomain.kernel`
  and so supports the array-native vector decode path (DESIGN.md §12).
  The flag describes the *type*; an individual instance may still decline
  and decode on the engine: ``HanoiDomain(13).kernel() is None`` above the
  dense-table size cap, and ``SlidingTileDomain(5).kernel() is None``
  above the 4×4 boards whose 4-bit cells fit the 64-bit board word.
- ``strips`` — a grounded STRIPS formulation exists for the domain
  (usable with the classical-planner baselines in :mod:`repro.planning`).

Built-in domains register at import time, each through a factory that
imports its module on the first :func:`create`; projects can
:func:`register` their own.  Lookups raise with the list of known names,
so a CLI typo is a one-line fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List

from repro.protocol import PlanningDomain

__all__ = [
    "DomainEntry",
    "register",
    "get_entry",
    "create",
    "domain_names",
    "list_entries",
]


@dataclass(frozen=True)
class DomainEntry:
    """One registered domain: how to build it and what it supports.

    Attributes
    ----------
    name:
        Registry key (the name the CLI and experiment specs use).
    factory:
        Callable returning a :class:`PlanningDomain`; positional/keyword
        arguments of :meth:`create` pass straight through (e.g. the size
        argument of ``HanoiDomain`` / ``SlidingTileDomain``).
    has_kernel:
        The domain type implements the :class:`~repro.protocol.DomainKernel`
        hook (vector decode capability).
    strips:
        A grounded STRIPS formulation of the domain exists.
    description:
        One-line summary for ``--help`` style listings.
    """

    name: str
    factory: Callable[..., PlanningDomain] = field(repr=False)
    has_kernel: bool = False
    strips: bool = False
    description: str = ""

    def create(self, *args, **kwargs) -> PlanningDomain:
        """Build a domain instance, forwarding all arguments to the factory."""
        return self.factory(*args, **kwargs)


_REGISTRY: Dict[str, DomainEntry] = {}


def register(entry: DomainEntry, replace: bool = False) -> DomainEntry:
    """Add *entry* to the registry and return it.

    Duplicate names raise ``ValueError`` unless *replace* is set (tests
    use *replace* to shadow a built-in with an instrumented double).
    """
    if entry.name in _REGISTRY and not replace:
        raise ValueError(f"domain {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def get_entry(name: str) -> DomainEntry:
    """Look up a registered domain by name.

    Raises ``KeyError`` naming the known domains when absent.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown domain {name!r}; registered: {known}") from None


def create(name: str, *args, **kwargs) -> PlanningDomain:
    """Build the domain registered under *name* (see :meth:`DomainEntry.create`)."""
    return get_entry(name).create(*args, **kwargs)


def domain_names() -> List[str]:
    """Sorted names of every registered domain."""
    return sorted(_REGISTRY)


def list_entries() -> List[DomainEntry]:
    """Every registered domain entry, sorted by name."""
    return [_REGISTRY[name] for name in domain_names()]


def _builtin(module: str, cls: str) -> Callable[..., PlanningDomain]:
    """A factory that imports ``repro.domains.<module>`` on its first call.

    Registering a built-in so loads none of its code: a run that builds a
    Hanoi domain never imports Blocks World or the STRIPS plan classes.
    """

    def factory(*args, **kwargs) -> PlanningDomain:
        return getattr(import_module(f"repro.domains.{module}"), cls)(*args, **kwargs)

    return factory


def _register_builtins() -> None:
    """Register the repository's own domains (import-time side effect)."""
    register(DomainEntry(
        "hanoi", _builtin("hanoi", "HanoiDomain"), has_kernel=True, strips=True,
        description="Towers of Hanoi (paper Table 2); size = number of disks",
    ))
    register(DomainEntry(
        "tile", _builtin("sliding_tile", "SlidingTileDomain"), has_kernel=True,
        description="n×n sliding-tile puzzle (paper Tables 4/5); size = side length",
    ))
    register(DomainEntry(
        "cube", _builtin("pocket_cube", "PocketCubeDomain"), has_kernel=True,
        description="2×2×2 pocket cube (hard-domain extension)",
    ))
    register(DomainEntry(
        "blocks", _builtin("blocks_world", "BlocksWorldDomain"), strips=True,
        description="Blocks World between two tower configurations",
    ))
    register(DomainEntry(
        "briefcase", _builtin("briefcase", "BriefcaseDomain"), strips=True,
        description="Pednault's Briefcase transport domain",
    ))
    register(DomainEntry(
        "navigation", _builtin("navigation", "GridNavigationDomain"),
        description="Grid navigation with obstacles",
    ))


_register_builtins()
