"""The experiment registry: name → :class:`ExperimentSpec`.

Built-in specs (the paper tables in :mod:`repro.exp.paper` and the
island study in :mod:`repro.exp.islands_portfolio`) register on the
registry's first use; projects can :func:`register` their own.  Lookups
raise with the list of known names, so a CLI typo is a one-line fix.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, List

from repro.exp.spec import ExperimentSpec

__all__ = ["register", "get_spec", "list_specs", "spec_names"]

_REGISTRY: Dict[str, ExperimentSpec] = {}

#: Modules whose import registers the built-in specs.
_BUILTINS = ("repro.exp.paper", "repro.exp.islands_portfolio")
_builtins_loaded = False


def _load_builtins() -> None:
    """Import the built-in spec modules once, before the first lookup."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        for name in _BUILTINS:
            import_module(name)


def register(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Add *spec* to the registry and return it.

    Parameters
    ----------
    spec:
        The experiment to register under ``spec.name``.
    replace:
        Allow overwriting an existing registration (tests use this);
        without it a duplicate name raises ``ValueError``.
    """
    _load_builtins()
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name.

    Raises ``KeyError`` naming the known experiments when absent.
    """
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown experiment {name!r}; registered: {known}") from None


def spec_names() -> List[str]:
    """Sorted names of every registered experiment."""
    _load_builtins()
    return sorted(_REGISTRY)


def list_specs() -> List[ExperimentSpec]:
    """Every registered experiment, sorted by name."""
    return [_REGISTRY[name] for name in spec_names()]
