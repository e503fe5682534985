"""Engine-cache tests: warm reuse, pooling bounds, the cold ablation."""

import gc
import random
import sys
import threading
import weakref

import pytest

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
        assert cache.stats()["warm_misses"] == 1

    def test_release_then_lease_is_warm_with_same_pair(self):
        cache = EngineCache()
        first = cache.lease("hanoi", (3,))
        cache.release(first)
        second = cache.lease("hanoi", (3,))
        assert second.warm is True
        assert second.domain is first.domain and second.engine is first.engine

    def test_concurrent_leases_get_distinct_pairs(self):
        cache = EngineCache()
        a = cache.lease("hanoi", (3,))
        b = cache.lease("hanoi", (3,))
        assert a.engine is not b.engine and a.domain is not b.domain

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

    def test_disabled_cache_never_warms(self):
        cache = EngineCache(enabled=False)
        lease = cache.lease("hanoi", (3,))
        cache.release(lease)
        assert cache.lease("hanoi", (3,)).warm is False
        assert cache.stats() == {
            "enabled": False,
            "warm_hits": 0,
            "warm_misses": 2,
            "evictions": 0,
            "idle": {},
        }

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
        # The adaptive low-hit-rate pause is wrong for shared-lifetime
        # engines: cross-request warmth is the whole point of the pool.
        assert EngineCache().lease("hanoi", (3,)).engine.adaptive_memo is False

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
                    if id(lease.engine) in held:
                        shared.append(lease.key)
                    held.add(id(lease.engine))
                warm[t] += lease.warm
                with held_lock:
                    held.discard(id(lease.engine))
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
