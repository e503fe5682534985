"""Process-pool lifecycle: no ``/dev/shm`` leaks, ever.

The pool ships each chunk's genes to its worker as a pickled array, so a
pool owns worker processes and nothing in ``/dev/shm``.  These tests pin
that: no new entry appears while a pool runs, across :meth:`restart` and
after :meth:`close` (which is idempotent), and worker crashes mid-batch
leave nothing behind once the evaluator is closed.
"""

import os

import pytest

from repro.core import GAConfig, GARun, make_rng, run_ga
from repro.core.parallel import ProcessPoolEvaluator
from repro.core.resilient import ResiliencePolicy, ResilientEvaluator
from repro.domains import HanoiDomain

CONFIG = GAConfig(population_size=12, generations=3, max_len=24, init_length=8)


def shm_entries():
    """Current ``/dev/shm`` entries (Linux); None elsewhere."""
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


class TestPoolLeavesDevShmAlone:
    @pytest.mark.skipif(shm_entries() is None, reason="no /dev/shm")
    def test_no_dev_shm_entry_mid_run_after_restart_and_close(self):
        before = shm_entries()
        pool = ProcessPoolEvaluator(processes=2)
        try:
            run = GARun(HanoiDomain(3), CONFIG, make_rng(3), evaluator=pool)
            run.step()
            assert shm_entries() - before == set()
            pool.restart()
            run.step()
            assert shm_entries() - before == set()
        finally:
            pool.close()
        pool.close()  # idempotent
        assert shm_entries() - before == set()


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
