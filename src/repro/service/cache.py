"""Warm cross-request engine reuse, keyed by domain config-hash.

:class:`~repro.core.decode_engine.DecodeEngine` binds by domain
*identity*: rebinding the same domain instance keeps its transition tables
hot, while a structurally-equal but fresh instance silently cold-starts.
The cache therefore stores the ``(domain, engine)`` pair together, keyed
by :func:`config_hash` over the domain name and constructor args, and
leases whole pairs for a run's lifetime — two concurrent same-domain
requests get *separate* pairs (no shared mutable state mid-run), and a
released pair is the next same-domain request's warm start.  At most
:data:`MAX_IDLE_PAIRS` idle pairs are kept across all keys; past that the
least recently released pair is evicted, and its domain (with the kernel
tables that die with it) is freed.

The fitness memo has the lifetime of a request *trajectory*, not of a
pair: a GA run's genomes depend on its config hash, seed, population and
plan-length bound, so only a request with all four equal can hit another
request's memo entries (the budget is left out because a longer budget
replays a prefix of a shorter one).  :meth:`EngineCache.attach_memo`
hands that trajectory's retained memo (or a fresh one) to the leased
engine and :meth:`EngineCache.release` takes it back; idle pairs hold no
memo.  At most :data:`MAX_IDLE_PAIRS` memos are retained, the least
recently served evicted first (``service_memo_evictions``), and empty
ones (vector and resilient requests never touch the engine's memo) are
not kept.  So a repeated request replays from its memo from its second
arrival on, distinct-seed traffic stops piling up genomes, and the worst
case stays :data:`MAX_IDLE_PAIRS` × ``memo_entries`` entries.

Warmth never changes results: the decode engine's exactness contract means
a warm request computes bit-identical fitness to a cold one, just faster.
Disable the cache (``enabled=False``) for the cold ablation in
``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.decode_engine import DecodeEngine, FitnessMemo
from repro.domains import registry as domain_registry
from repro.domains.base import PlanningDomain
from repro.obs.metrics import MetricsRegistry

__all__ = ["config_hash", "EngineLease", "EngineCache", "MAX_IDLE_PAIRS"]

#: Idle pairs kept across all keys, and fitness memos kept across all
#: trajectories; the least recently released goes first.
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
    request's caches intact) or was built cold for this lease;
    ``trajectory`` is the memo key set by :meth:`EngineCache.attach_memo`.
    """

    key: str
    domain: PlanningDomain
    engine: DecodeEngine
    warm: bool
    trajectory: Optional[Hashable] = None
    released: bool = field(default=False, repr=False)


class EngineCache:
    """Pool of idle ``(domain, engine)`` pairs per domain config-hash.

    Thread-safe: the run scheduler's worker threads lease and release
    concurrently.  ``max_idle_per_key`` bounds retained pairs per key
    (excess releases are dropped) and :data:`MAX_IDLE_PAIRS` bounds them
    across keys (the least recently released pair is evicted, counted in
    ``service_cache_evictions``).  Fitness memos are retained per request
    trajectory, also at most :data:`MAX_IDLE_PAIRS` of them (counted in
    ``service_memo_evictions``).  ``enabled=False`` turns every lease into
    a cold build with a fresh memo and every release into a drop — the
    cold-cache ablation.
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
            # Reported from zero.
            metrics.counter("service_cache_evictions")
            metrics.counter("service_memo_evictions")
        self._lock = threading.Lock()
        # Idle (key, domain, engine) triples, least recently released first.
        self._idle: List[Tuple[str, PlanningDomain, DecodeEngine]] = []
        # Retained memos by trajectory, least recently served first.
        self._memos: "OrderedDict[Hashable, FitnessMemo]" = OrderedDict()

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
        # adaptive_memo=False: a retained memo must survive its request —
        # a repeated request replays whole populations out of it (see
        # DecodeEngine's docstring).
        engine = DecodeEngine(adaptive_memo=False)
        return EngineLease(key=key, domain=domain, engine=engine, warm=False)

    def attach_memo(self, lease: EngineLease, trajectory: Hashable) -> None:
        """Give *lease*'s engine the retained memo of *trajectory*, or a fresh one.

        *trajectory* must determine the run's genomes given the lease's
        config hash (the scheduler passes ``(key, seed, population,
        max_len)``).  The memo leaves the cache until :meth:`release`
        takes it back, so two concurrent same-trajectory runs never share
        one.
        """
        memo = None
        if self.enabled:
            with self._lock:
                memo = self._memos.pop(trajectory, None)
        lease.trajectory = trajectory
        lease.engine.swap_memo(memo)

    def release(self, lease: EngineLease) -> None:
        """Return a lease's pair to the idle pool and its memo to the cache.

        Idempotent.  The engine's memo is always detached, so idle pairs
        hold none; a non-empty memo of an attached trajectory is retained
        as the most recently served, evicting the least recently served
        past :data:`MAX_IDLE_PAIRS`.  With the cache disabled both are
        dropped; when the per-key idle pool is full the pair is dropped;
        when all keys together hold :data:`MAX_IDLE_PAIRS` pairs, the least
        recently released pair is evicted.
        """
        if lease.released:
            return
        lease.released = True
        memo = lease.engine.swap_memo()
        if not self.enabled:
            return
        if lease.trajectory is not None and memo.entries:
            self._retain_memo(lease.trajectory, memo)
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

    def _retain_memo(self, trajectory: Hashable, memo: FitnessMemo) -> None:
        memos = self._memos
        with self._lock:
            # A concurrent same-trajectory run's memo is replaced: both
            # were scored on the same genomes, and this one was served last.
            memos.pop(trajectory, None)
            memos[trajectory] = memo
            evicted = len(memos) > MAX_IDLE_PAIRS
            if evicted:
                memos.popitem(last=False)
        if evicted and self.metrics is not None:
            self.metrics.counter("service_memo_evictions").add(1)

    def stats(self) -> dict:
        """Warm hit/miss and eviction totals, idle-pool and memo occupancy."""
        idle: Dict[str, int] = {}
        with self._lock:
            for key, _domain, _engine in self._idle:
                idle[key] = idle.get(key, 0) + 1
            memos = {
                "trajectories": len(self._memos),
                "entries": sum(len(memo.entries) for memo in self._memos.values()),
            }
        return {
            "enabled": self.enabled,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "evictions": self.evictions,
            "idle": idle,
            "memos": memos,
        }
