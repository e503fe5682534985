"""Chaos tier: the service degrades gracefully when its pool dies mid-request.

Requests submitted with ``evaluator: "resilient"`` route evaluation
through the :class:`~repro.core.resilient.ResilientEvaluator` retry
ladder.  These tests kill real worker processes (and simulate a
permanently broken pool) under in-flight service requests and assert the
requests still complete — pool death becomes a retry or a degradation to
serial evaluation, never an error frame.
"""

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
