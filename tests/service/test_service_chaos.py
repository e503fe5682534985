"""Chaos tier: the service degrades gracefully and keeps its memory bounded.

Requests submitted with ``evaluator: "resilient"`` route evaluation
through the :class:`~repro.core.resilient.ResilientEvaluator` retry
ladder.  These tests kill real worker processes (and simulate a
permanently broken pool) under in-flight service requests and assert the
requests still complete — pool death becomes a retry or a degradation to
serial evaluation, never an error frame.

A real-clock memory test drains a long run of distinct-seed requests in
a fresh interpreter and reads its resident set as it goes: retained
fitness memos are bounded, so memory stays flat once the bound is full.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.resilient as resilient
from repro.core import ResiliencePolicy, WorkerPoolError
from repro.core.parallel import Evaluator
from repro.obs import MetricsRegistry
from repro.service import DONE, PlanRequest, RunScheduler


class _BrokenPool(Evaluator):
    """Inner evaluator whose pool fails the first *failures* batches."""

    def __init__(self, failures):
        self.failures = failures

    def evaluate_buffer(self, buffer, context):
        if self.failures > 0:
            self.failures -= 1
            raise WorkerPoolError("simulated pool death")
        raise WorkerPoolError("pool stayed dead")


def patch_resilient(monkeypatch, **overrides):
    """Intercept the scheduler's resilient-evaluator construction."""
    real = resilient.ResilientEvaluator

    def build(*args, **kwargs):
        kwargs.update(overrides)
        return real(*args, **kwargs)

    monkeypatch.setattr(resilient, "ResilientEvaluator", build)


def resilient_request(**overrides):
    base = dict(
        domain="hanoi", size=3, seed=3, budget=20, population=20, evaluator="resilient"
    )
    base.update(overrides)
    return PlanRequest(**base)


NO_SLEEP = ResiliencePolicy(retry_max=1, degrade_after=2, sleep=lambda s: None)


@pytest.mark.chaos
@pytest.mark.timeout(300)
class TestPoolDeathMidRequest:
    def test_request_completes_despite_worker_crashes(self, monkeypatch):
        # Real worker processes are killed before the first two batches;
        # the pool restarts recover and the request completes untouched.
        patch_resilient(monkeypatch, worker_crashes=2)
        scheduler = RunScheduler(metrics=MetricsRegistry())
        run = scheduler.submit(resilient_request())
        scheduler.drain()
        assert run.state == DONE
        assert run.result["solved"] is True
        assert run._ga.evaluator.degraded is False  # the pool recovered

    def test_permanently_dead_pool_degrades_to_serial_and_finishes(self, monkeypatch):
        real = resilient.ResilientEvaluator
        monkeypatch.setattr(
            resilient,
            "ResilientEvaluator",
            lambda *a, **k: real(_BrokenPool(failures=10 ** 6), policy=NO_SLEEP),
        )
        scheduler = RunScheduler(metrics=MetricsRegistry())
        run = scheduler.submit(resilient_request())
        scheduler.drain()
        assert run.state == DONE
        assert run.result["solved"] is True
        assert run._ga.evaluator.degraded is True

    def test_degraded_request_matches_healthy_trace(self, monkeypatch):
        # Degradation changes *where* fitness is computed, never *what* it
        # is: the per-generation fitness trajectory must match a healthy
        # serial run's bit-for-bit (the chaotic trace additionally carries
        # retry/degradation events, and its batches move between pool and
        # serial, so only `generation` events are compared).
        scheduler = RunScheduler(metrics=MetricsRegistry())
        healthy = scheduler.submit(resilient_request())
        scheduler.drain()

        real = resilient.ResilientEvaluator
        monkeypatch.setattr(
            resilient,
            "ResilientEvaluator",
            lambda *a, **k: real(_BrokenPool(failures=10 ** 6), policy=NO_SLEEP),
        )
        chaotic_scheduler = RunScheduler(metrics=MetricsRegistry())
        chaotic = chaotic_scheduler.submit(resilient_request())
        chaotic_scheduler.drain()

        assert healthy.state == DONE and chaotic.state == DONE

        def generations(run):
            return [r for r in run.canonical_trace() if r["kind"] == "generation"]

        assert generations(chaotic) == generations(healthy)


# 200 distinct-seed hanoi-4 requests, one at a time; VmRSS read after
# requests 50 and 200.
CHURN_DISTINCT_SEEDS = """
import json
from repro.service import DONE, PlanRequest, RunScheduler


def vmrss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0


scheduler = RunScheduler()
rss = {}
for i in range(1, 201):
    run = scheduler.submit(
        PlanRequest(domain="hanoi", size=4, seed=1000 + i, budget=30, population=30)
    )
    scheduler.drain()
    assert run.state == DONE, run.state
    if i in (50, 200):
        rss[i] = vmrss_mb()
print(json.dumps({"rss": rss, "memos": scheduler.engine_cache.stats().get("memos")}))
"""


@pytest.mark.chaos
@pytest.mark.timeout(300)
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
def test_rss_stays_flat_under_distinct_seed_churn():
    proc = subprocess.run(
        [sys.executable, "-c", CHURN_DISTINCT_SEEDS],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"), "PATH": "/usr/bin:/bin"},
        timeout=280,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    growth = out["rss"]["200"] - out["rss"]["50"]
    assert growth < 15.0, f"VmRSS grew {growth:.1f} MB over requests 50-200"
    assert out["memos"]["trajectories"] <= 32
