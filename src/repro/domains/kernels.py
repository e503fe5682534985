"""Kernel plumbing: the one-kernel-per-domain-instance cache.

The kernels themselves (Hanoi's dense base-3 tables, the sliding tile's
4-bit board word, the pocket cube's 40-bit cubie word) live next to their
domains; this module holds what they share, :func:`cached_kernel` — the
cache behind every ``PlanningDomain.kernel()`` implementation, so repeated
capability probes are free and concurrent consumers (islands, multi-phase,
several evaluators) share one kernel.  The cache is external to the
domain on purpose: domains are pickled to process-pool workers, and a
kernel held in an attribute would ship its tables with every pool start.

Ownership rule: a kernel holds its domain *weakly*
(:attr:`~repro.protocol.DomainKernel.domain`), and the cache holds the
domain weakly too, so nothing here keeps a domain alive — a domain's
kernel is freed by refcount the moment the last reference to the domain
goes.  Whoever keeps a kernel keeps its domain: :class:`~repro.core.
vector_decode.VectorDecoder` stores the domain it was built from, and any
other long-lived holder of a kernel must do the same.

This module deliberately imports only :mod:`repro.protocol` — never
``repro.core`` — so domain modules can define kernels without import
cycles.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["cached_kernel"]


#: domain instance -> its kernel (or None for "probed, unsupported").
_KERNEL_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_UNSUPPORTED = object()


def cached_kernel(
    domain: PlanningDomain,
    factory: Callable[[PlanningDomain], Optional[DomainKernel]],
) -> Optional[DomainKernel]:
    """The kernel for *domain*, built once per instance via *factory*.

    ``factory(domain)`` may return ``None`` ("unsupported at this size");
    the negative result is cached too.  Entries die with the domain
    instance (weak keys, and kernels refer back to their domain only
    weakly), so long-lived processes cycling through many domains don't
    accumulate tables.  The cache never keeps a domain alive: hold the
    domain for as long as you use its kernel.
    """
    hit = _KERNEL_CACHE.get(domain)
    if hit is not None:
        return None if hit is _UNSUPPORTED else hit
    kernel = factory(domain)
    _KERNEL_CACHE[domain] = _UNSUPPORTED if kernel is None else kernel
    return kernel
