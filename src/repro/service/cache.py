"""Warm cross-request engine reuse, keyed by domain config-hash.

:class:`~repro.core.decode_engine.DecodeEngine` binds by domain
*identity*: rebinding the same domain instance keeps its transition tables
and (same start/weights) fitness memo hot, while a structurally-equal but
fresh instance silently cold-starts.  The cache therefore stores the
``(domain, engine)`` pair together, keyed by :func:`config_hash` over the
domain name and constructor args, and leases whole pairs for a run's
lifetime — two concurrent same-domain requests get *separate* pairs (no
shared mutable state mid-run), and a released pair is the next same-domain
request's warm start.  At most :data:`MAX_IDLE_PAIRS` idle pairs are kept
across all keys; past that the least recently released pair is evicted,
and its domain (with the kernel tables that die with it) is freed, so
memory stays bounded when request shapes churn.

Warmth never changes results: the decode engine's exactness contract means
a warm request computes bit-identical fitness to a cold one, just faster.
Disable the cache (``enabled=False``) for the cold ablation in
``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.decode_engine import DecodeEngine
from repro.domains import registry as domain_registry
from repro.domains.base import PlanningDomain
from repro.obs.metrics import MetricsRegistry

__all__ = ["config_hash", "EngineLease", "EngineCache", "MAX_IDLE_PAIRS"]

#: Idle pairs kept across all keys; the least recently released goes first.
MAX_IDLE_PAIRS = 32


def config_hash(domain: str, args: Sequence[object] = ()) -> str:
    """Stable short hash of a domain name + constructor args.

    Two requests share cache entries iff they hash equal, so the hash must
    cover everything that changes domain semantics — name and every
    positional arg — and nothing that doesn't (seeds, budgets, tenants).
    """
    payload = json.dumps([domain, list(args)], sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class EngineLease:
    """One checked-out ``(domain, engine)`` pair; hold for the run's lifetime.

    ``warm`` records whether the pair came from the idle pool (a previous
    request's caches intact) or was built cold for this lease.
    """

    key: str
    domain: PlanningDomain
    engine: DecodeEngine
    warm: bool
    released: bool = field(default=False, repr=False)


class EngineCache:
    """Pool of idle ``(domain, engine)`` pairs per domain config-hash.

    Thread-safe: the run scheduler's worker threads lease and release
    concurrently.  ``max_idle_per_key`` bounds retained pairs per key
    (excess releases are dropped) and :data:`MAX_IDLE_PAIRS` bounds them
    across keys (the least recently released pair is evicted, counted in
    ``service_cache_evictions``); ``enabled=False`` turns every lease into
    a cold build and every release into a drop — the cold-cache ablation.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_idle_per_key: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_idle_per_key < 1:
            raise ValueError(f"max_idle_per_key must be >= 1, got {max_idle_per_key}")
        self.enabled = enabled
        self.max_idle_per_key = max_idle_per_key
        self.metrics = metrics
        self.warm_hits = 0
        self.warm_misses = 0
        self.evictions = 0
        if metrics is not None:
            metrics.counter("service_cache_evictions")  # reported from zero
        self._lock = threading.Lock()
        # Idle (key, domain, engine) triples, least recently released first.
        self._idle: List[Tuple[str, PlanningDomain, DecodeEngine]] = []

    def lease(self, domain_name: str, args: Sequence[object] = ()) -> EngineLease:
        """Check out a pair for *domain_name(args)*, warm when available.

        Unknown domain names raise ``KeyError`` (from the registry) — the
        scheduler turns that into an ``error`` frame.
        """
        key = config_hash(domain_name, args)
        entry: Optional[Tuple[str, PlanningDomain, DecodeEngine]] = None
        if self.enabled:
            with self._lock:
                idle = self._idle
                for i in range(len(idle) - 1, -1, -1):
                    if idle[i][0] == key:
                        entry = idle.pop(i)
                        break
        if entry is not None:
            self.warm_hits += 1
            if self.metrics is not None:
                self.metrics.counter("service_warm_hits").add(1)
            return EngineLease(key=key, domain=entry[1], engine=entry[2], warm=True)
        domain = domain_registry.create(domain_name, *args)
        self.warm_misses += 1
        if self.metrics is not None:
            self.metrics.counter("service_warm_misses").add(1)
        # adaptive_memo=False: a shared-lifetime engine must keep its
        # fitness memo across requests — repeated same-seed requests replay
        # whole populations out of it (see DecodeEngine's docstring).
        engine = DecodeEngine(adaptive_memo=False)
        return EngineLease(key=key, domain=domain, engine=engine, warm=False)

    def release(self, lease: EngineLease) -> None:
        """Return a lease's pair to the idle pool (idempotent).

        With the cache disabled, or when the per-key idle pool is full, the
        pair is simply dropped; when all keys together hold
        :data:`MAX_IDLE_PAIRS`, the least recently released pair is evicted.
        """
        if lease.released:
            return
        lease.released = True
        if not self.enabled:
            return
        with self._lock:
            idle = self._idle
            if sum(1 for entry in idle if entry[0] == lease.key) >= self.max_idle_per_key:
                return
            idle.append((lease.key, lease.domain, lease.engine))
            evicted = len(idle) > MAX_IDLE_PAIRS
            if evicted:
                del idle[0]
                self.evictions += 1
        if evicted and self.metrics is not None:
            self.metrics.counter("service_cache_evictions").add(1)

    def stats(self) -> dict:
        """Warm hit/miss and eviction totals and current idle-pool occupancy."""
        idle: Dict[str, int] = {}
        with self._lock:
            for key, _domain, _engine in self._idle:
                idle[key] = idle.get(key, 0) + 1
        return {
            "enabled": self.enabled,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "evictions": self.evictions,
            "idle": idle,
        }
