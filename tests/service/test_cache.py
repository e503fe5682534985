"""Engine-cache tests: warm reuse, pooling bounds, memo lifetime."""

import gc
import random
import sys
import threading
import weakref

import pytest

from repro.core.decode_engine import DecodeEngine
from repro.core.vector_decode import VectorDecoder
from repro.obs import MetricsRegistry
from repro.service import EngineCache, config_hash
from repro.service.cache import MAX_IDLE_PAIRS


class TestConfigHash:
    def test_same_config_same_hash(self):
        assert config_hash("hanoi", (4,)) == config_hash("hanoi", (4,))

    def test_hash_covers_name_and_args(self):
        assert config_hash("hanoi", (4,)) != config_hash("hanoi", (5,))
        assert config_hash("hanoi", (4,)) != config_hash("tile", (4,))

    def test_hash_is_short_and_stable_across_arg_container(self):
        digest = config_hash("hanoi", [4])
        assert len(digest) == 16
        assert digest == config_hash("hanoi", (4,))


class TestEngineCache:
    def test_first_lease_is_cold(self):
        cache = EngineCache()
        lease = cache.lease("hanoi", (3,))
        assert lease.warm is False
        assert cache.stats() == {
            "warm_hits": 0,
            "warm_misses": 1,
            "evictions": 0,
            "idle": {},
            "memos": {"trajectories": 0, "entries": 0},
        }

    def test_release_then_lease_is_warm_with_same_pair(self):
        cache = EngineCache()
        first = cache.lease("hanoi", (3,))
        decoder = first.decoder  # built on first use, then kept by the pair
        cache.release(first)
        second = cache.lease("hanoi", (3,))
        assert second.warm is True
        assert second.domain is first.domain and second.decoder is decoder

    def test_concurrent_leases_get_distinct_pairs(self):
        cache = EngineCache()
        a = cache.lease("hanoi", (3,))
        b = cache.lease("hanoi", (3,))
        assert a.decoder is not b.decoder and a.domain is not b.domain

    def test_different_configs_never_share(self):
        cache = EngineCache()
        cache.release(cache.lease("hanoi", (3,)))
        assert cache.lease("hanoi", (4,)).warm is False

    def test_release_is_idempotent(self):
        cache = EngineCache(max_idle_per_key=4)
        lease = cache.lease("hanoi", (3,))
        cache.release(lease)
        cache.release(lease)  # double release must not double-pool the pair
        assert cache.stats()["idle"][lease.key] == 1

    def test_idle_pool_is_bounded_per_key(self):
        cache = EngineCache(max_idle_per_key=2)
        leases = [cache.lease("hanoi", (3,)) for _ in range(4)]
        for lease in leases:
            cache.release(lease)
        assert cache.stats()["idle"][leases[0].key] == 2

    def test_metrics_tick_warm_counters(self):
        metrics = MetricsRegistry()
        cache = EngineCache(metrics=metrics)
        cache.release(cache.lease("hanoi", (3,)))
        cache.lease("hanoi", (3,))
        assert metrics.counters["service_warm_misses"].value == 1
        assert metrics.counters["service_warm_hits"].value == 1

    def test_unknown_domain_raises_from_registry(self):
        with pytest.raises(KeyError):
            EngineCache().lease("no-such-domain", ())

    def test_cache_engines_keep_their_memo_unconditionally(self):
        # No hit-rate admission control: a memo that has not hit yet still
        # keeps every genome, because a repeated request replays them all.
        cache = EngineCache()
        lease = cache.lease("hanoi", (3,))
        assert lease.memo is None
        cache.attach_memo(lease, "t")
        fingerprints = [i.to_bytes(4, "little") for i in range(2000)]
        for fp in fingerprints:
            assert lease.memo.lookup(fp) is None
            lease.memo.store(fp, "fitness")
        assert all(lease.memo.lookup(fp) is not None for fp in fingerprints)

    def test_kernel_domains_lease_the_code_decoder(self):
        # One decoder per domain: a code decoder holds no table of states.
        cache = EngineCache()
        for name, args in (("hanoi", (3,)), ("tile", (3,))):
            lease = cache.lease(name, args)
            assert isinstance(lease.decoder, VectorDecoder)
            assert lease.decoder.domain is lease.domain
        lease = cache.lease("hanoi", (13,))  # past the kernel's disk budget
        assert lease.domain.kernel() is None
        assert isinstance(lease.decoder, DecodeEngine)

    def test_bad_pool_bound_rejected(self):
        with pytest.raises(ValueError, match="max_idle_per_key"):
            EngineCache(max_idle_per_key=0)


class TestIdleCap:
    """Idle pairs are bounded across keys, least recently released first."""

    #: 40 distinct configs (Hanoi sizes × goal stakes), past the cap.
    CONFIGS = [(n, goal) for goal in (1, 2) for n in range(1, 21)]

    def test_churning_keys_keep_idle_bounded_and_free_evicted_domains(self):
        metrics = MetricsRegistry()
        cache = EngineCache(metrics=metrics)
        refs = []
        for args in self.CONFIGS:
            lease = cache.lease("hanoi", args)
            lease.domain.kernel()
            refs.append(weakref.ref(lease.domain))
            cache.release(lease)
            del lease
            assert sum(cache.stats()["idle"].values()) <= MAX_IDLE_PAIRS
        evicted = len(self.CONFIGS) - MAX_IDLE_PAIRS
        assert cache.stats()["evictions"] == evicted
        assert metrics.counters["service_cache_evictions"].value == evicted
        gc.collect()
        # The oldest releases went, and their domains with them.
        assert [r() is None for r in refs] == [True] * evicted + [False] * MAX_IDLE_PAIRS
        # The newest survive warm; the evicted ones lease cold again.
        assert cache.lease("hanoi", self.CONFIGS[-1]).warm is True
        assert cache.lease("hanoi", self.CONFIGS[0]).warm is False

    def test_counter_reported_before_any_eviction(self):
        metrics = MetricsRegistry()
        cache = EngineCache(metrics=metrics)
        for _ in range(3):
            cache.release(cache.lease("hanoi", (3,)))
        assert metrics.counters["service_cache_evictions"].value == 0
        assert cache.stats()["evictions"] == 0

    def test_concurrent_churn_never_shares_or_loses_a_pair(self):
        # More threads than cores, a tiny switch interval, 40 keys: every
        # release is pooled (no per-key drop), so each one is later leased
        # warm, evicted, or still idle — a lost update breaks the sum.
        cache = EngineCache(max_idle_per_key=MAX_IDLE_PAIRS + 1)
        held, held_lock, shared = set(), threading.Lock(), []
        releases, warm = [0] * 8, [0] * 8

        def churn(t):
            rng = random.Random(t)
            for _ in range(150):
                lease = cache.lease("hanoi", rng.choice(self.CONFIGS))
                with held_lock:
                    if id(lease.domain) in held:
                        shared.append(lease.key)
                    held.add(id(lease.domain))
                warm[t] += lease.warm
                with held_lock:
                    held.discard(id(lease.domain))
                cache.release(lease)
                releases[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shared == []
        stats = cache.stats()
        idle = sum(stats["idle"].values())
        assert idle <= MAX_IDLE_PAIRS
        assert sum(releases) == 8 * 150
        assert sum(releases) == sum(warm) + stats["evictions"] + idle
        assert stats["evictions"] > 0


def serve(cache, trajectory, fingerprints=(b"g",)):
    """Lease a hanoi-3 pair, attach *trajectory*'s memo, and report hits.

    Stores every fingerprint the memo misses (as a scored genome would be)
    and returns the ones it already held, then releases the lease.
    """
    lease = cache.lease("hanoi", (3,))
    cache.attach_memo(lease, trajectory)
    hits = []
    for fp in fingerprints:
        if lease.memo.lookup(fp) is not None:
            hits.append(fp)
        else:
            lease.memo.store(fp, "fitness")
    cache.release(lease)
    return hits


def held(cache, trajectory):
    """Whether *trajectory*'s memo is retained (probing it stores nothing)."""
    lease = cache.lease("hanoi", (3,))
    cache.attach_memo(lease, trajectory)
    hit = lease.memo.lookup(b"g") is not None
    cache.release(lease)
    return hit


class TestTrajectoryMemos:
    """Fitness memos live as long as a request trajectory, at most 32 of them."""

    def test_memo_follows_its_trajectory_not_the_pair(self):
        cache = EngineCache()
        assert serve(cache, "a", (b"g1", b"g2")) == []
        assert cache.stats()["memos"] == {"trajectories": 1, "entries": 2}
        # The same warm pair serves another trajectory from a fresh memo ...
        assert serve(cache, "b", (b"g1",)) == []
        # ... and the first trajectory's memo comes back whole.
        assert serve(cache, "a", (b"g1", b"g2")) == [b"g1", b"g2"]
        assert cache.stats()["memos"] == {"trajectories": 2, "entries": 3}

    def test_idle_pairs_hold_no_memo(self):
        cache = EngineCache()
        serve(cache, "a")
        lease = cache.lease("hanoi", (3,))
        assert lease.warm is True
        assert lease.memo is None

    def test_distinct_trajectories_keep_the_last_32_least_recently_served_out(self):
        metrics = MetricsRegistry()
        cache = EngineCache(metrics=metrics)
        assert metrics.counters["service_memo_evictions"].value == 0
        for t in range(MAX_IDLE_PAIRS):
            serve(cache, t)
        serve(cache, 0)  # served again: now the most recent
        for t in range(MAX_IDLE_PAIRS, 40):
            serve(cache, t)
        assert cache.stats()["memos"]["trajectories"] == MAX_IDLE_PAIRS
        assert metrics.counters["service_memo_evictions"].value == 40 - MAX_IDLE_PAIRS
        # Trajectories 1..8 were the least recently served; 0 and 9.. stay.
        assert [t for t in range(40) if not held(cache, t)] == list(range(1, 9))

    def test_empty_memos_are_not_kept(self):
        cache = EngineCache()
        serve(cache, "a", ())
        assert cache.stats()["memos"] == {"trajectories": 0, "entries": 0}

    def test_concurrent_same_trajectory_leases_never_share_a_memo(self):
        cache = EngineCache()
        serve(cache, "a")
        first, second = cache.lease("hanoi", (3,)), cache.lease("hanoi", (3,))
        cache.attach_memo(first, "a")
        cache.attach_memo(second, "a")
        assert first.memo.lookup(b"g") is not None
        assert second.memo.lookup(b"g") is None
        second.memo.store(b"h", "fitness")
        cache.release(first)
        cache.release(second)
        # The last release wins; both memos were scored on one trajectory.
        assert cache.stats()["memos"] == {"trajectories": 1, "entries": 1}

    def test_concurrent_churn_never_shares_a_memo(self):
        # More threads than cores and a tiny switch interval over 40
        # trajectories: no two held leases may hold one memo, and the
        # retained set stays within its bound.
        cache = EngineCache()
        held, held_lock, shared = set(), threading.Lock(), []

        def churn(t):
            rng = random.Random(t)
            for i in range(150):
                lease = cache.lease("hanoi", (3,))
                cache.attach_memo(lease, rng.randrange(40))
                memo = lease.memo
                with held_lock:
                    if id(memo) in held:
                        shared.append(lease.trajectory)
                    held.add(id(memo))
                memo.store(f"{t}-{i}".encode(), "fitness")
                with held_lock:
                    held.discard(id(memo))
                cache.release(lease)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shared == []
        assert cache.stats()["memos"]["trajectories"] == MAX_IDLE_PAIRS
