"""Shared-memory segment lifecycle: no ``/dev/shm`` leaks, ever.

The zero-copy dispatch path publishes each generation through one
``multiprocessing.shared_memory`` segment owned by the parent.  These tests
pin the ownership contract: the segment is unlinked on :meth:`close` and on
:meth:`restart` (a fresh one replaces it), survives reuse across batches,
also carries the object-list API's batches, and worker crashes mid-batch
leave nothing behind once the evaluator is closed.
"""

import os
from multiprocessing import shared_memory

import pytest

from repro.core import GAConfig, GARun, make_rng, run_ga
from repro.core.parallel import ProcessPoolEvaluator
from repro.core.resilient import ResiliencePolicy, ResilientEvaluator
from repro.domains import HanoiDomain
from tests.oracle import reference_ga

CONFIG = GAConfig(population_size=12, generations=3, max_len=24, init_length=8)


def shm_entries():
    """Current kernel-named shared-memory segments (Linux); None elsewhere."""
    if not os.path.isdir("/dev/shm"):
        return None
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


def assert_unlinked(name):
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


class TestSegmentLifecycle:
    def test_segment_exists_during_run_and_unlinked_on_close(self):
        pool = ProcessPoolEvaluator(processes=2)
        try:
            run_ga(HanoiDomain(3), CONFIG, make_rng(0), evaluator=pool)
            assert pool._segment is not None
            name = pool._segment.name
            # Live while the evaluator is open: attach must succeed.
            probe = shared_memory.SharedMemory(name=name)
            probe.close()
        finally:
            pool.close()
        assert pool._segment is None
        assert_unlinked(name)

    def test_segment_reused_across_batches(self):
        # Mutation-only breeding keeps genome lengths fixed, so every
        # generation fits the first (over-allocated) segment exactly.
        config = CONFIG.replace(crossover_rate=0.0)
        with ProcessPoolEvaluator(processes=2) as pool:
            run = GARun(HanoiDomain(3), config, make_rng(1), evaluator=pool)
            run.step()
            first = pool._segment.name
            run.step()
            assert pool._segment.name == first

    def test_restart_unlinks_and_replaces_segment(self):
        with ProcessPoolEvaluator(processes=2) as pool:
            run = GARun(HanoiDomain(3), CONFIG, make_rng(3), evaluator=pool)
            run.step()
            old = pool._segment.name
            pool.restart()
            assert_unlinked(old)
            # The pool still works and publishes into a fresh segment.
            run.step()
            assert pool._segment is not None
            assert pool._segment.name != old

    def test_list_api_publishes_through_the_segment(self):
        with ProcessPoolEvaluator(processes=2) as pool:
            reference_ga(HanoiDomain(3), CONFIG, make_rng(5), evaluator=pool)
            assert pool._segment is not None
            name = pool._segment.name
        assert_unlinked(name)

    def test_close_is_idempotent(self):
        pool = ProcessPoolEvaluator(processes=2)
        run_ga(HanoiDomain(3), CONFIG, make_rng(6), evaluator=pool)
        pool.close()
        pool.close()
        assert pool._segment is None


class TestCrashRecoveryLeavesNoLeaks:
    def test_worker_crash_leaves_no_dev_shm_entries(self):
        before = shm_entries()
        policy = ResiliencePolicy(retry_max=2, sleep=lambda s: None)
        evaluator = ResilientEvaluator(
            inner=ProcessPoolEvaluator(processes=2),
            policy=policy,
            worker_crashes=1,
        )
        try:
            result = run_ga(HanoiDomain(3), CONFIG, make_rng(7), evaluator=evaluator)
            assert result.best is not None
        finally:
            evaluator.close()
        after = shm_entries()
        if before is not None:
            assert after - before == set()
