"""Chaos tests: the resilient evaluation path under real worker failures.

These spawn process pools and kill/wedge real workers (``os._exit``,
``time.sleep``), so they are marked ``chaos`` and kept off the default CI
path; run them with ``pytest -m chaos``.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    GAConfig,
    ResiliencePolicy,
    ResilientEvaluator,
    SerialEvaluator,
    WorkerPoolError,
    make_rng,
)
from repro.core.fitness import FitnessFunction
from repro.core.ga import initial_population
from repro.core.parallel import EvaluationContext, Evaluator, ProcessPoolEvaluator
from repro.core.resilient import _injected_worker_crash
from repro.domains import HanoiDomain
from repro.obs import MetricsRegistry, Tracer
from repro.obs.sinks import MemoryRecorder


NO_SLEEP = dict(sleep=lambda s: None)


@pytest.fixture
def ctx(hanoi3):
    return EvaluationContext(hanoi3, hanoi3.initial_state, FitnessFunction(hanoi3))


@pytest.fixture
def cfg():
    return GAConfig(population_size=24, generations=5, max_len=12, init_length=6)


def expected_fitness(cfg, ctx):
    pop = initial_population(cfg, make_rng(3))
    SerialEvaluator().evaluate_buffer(pop, ctx)
    return pop.total.tolist()


class _AlwaysBroken(Evaluator):
    """Inner evaluator stub whose pool is permanently broken."""

    def __init__(self):
        self.calls = 0

    def evaluate_buffer(self, buffer, context):
        self.calls += 1
        raise WorkerPoolError("simulated broken pool")


class TestPolicy:
    def test_backoff_caps(self):
        policy = ResiliencePolicy(backoff_base_s=0.5, backoff_cap_s=2.0, **NO_SLEEP)
        assert [policy.backoff_s(i) for i in range(4)] == [0.5, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(retry_max=-1), dict(degrade_after=0), dict(backoff_base_s=-1),
         dict(eval_timeout_s=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


@pytest.mark.chaos
class TestKillResilience:
    def test_survives_worker_crashes_with_correct_fitness(self, cfg, ctx):
        expected = expected_fitness(cfg, ctx)
        pop = initial_population(cfg, make_rng(3))
        policy = ResiliencePolicy(retry_max=2, eval_timeout_s=30.0, **NO_SLEEP)
        with ResilientEvaluator(policy=policy, worker_crashes=2) as ev:
            ev.evaluate_buffer(pop, ctx)
            assert pop.total.tolist() == expected
            assert not ev.degraded  # the pool recovered; no permanent fallback

    def test_survives_hung_worker_via_batch_timeout(self, cfg, ctx):
        expected = expected_fitness(cfg, ctx)
        pop = initial_population(cfg, make_rng(3))
        policy = ResiliencePolicy(retry_max=2, eval_timeout_s=2.0, **NO_SLEEP)
        # One worker so the wedged process stalls the whole batch: the
        # per-batch timeout is the only thing standing between us and a hang.
        with ResilientEvaluator(
            ProcessPoolEvaluator(processes=1), policy=policy,
            worker_hangs=1, hang_seconds=30.0,
        ) as ev:
            ev.evaluate_buffer(pop, ctx)
            assert pop.total.tolist() == expected

    def test_retry_events_and_counters(self, cfg, ctx):
        pop = initial_population(cfg, make_rng(3))
        rec = MemoryRecorder()
        metrics = MetricsRegistry()
        policy = ResiliencePolicy(retry_max=2, eval_timeout_s=30.0, **NO_SLEEP)
        with ResilientEvaluator(policy=policy, worker_crashes=1) as ev:
            ev.bind_observability(Tracer([rec]), metrics, scope="test")
            ev.evaluate_buffer(pop, ctx)
        retries = [e for e in rec.events if e.kind == "retry"]
        assert retries and retries[0].component == "evaluator"
        assert "WorkerPoolError" in retries[0].reason
        assert metrics.counter("retries").value >= 1
        assert metrics.counter("degradations").value == 0


def break_pool(pool, ctx):
    """Kill one of *pool*'s workers and wait until the executor notices."""
    pool.ensure_started(ctx)
    with pytest.raises(BrokenProcessPool):
        pool.submit(_injected_worker_crash).result(timeout=60)


@pytest.mark.chaos
class TestBrokenBetweenBatches:
    """A worker can die after its batch returned: the next batch finds the
    pool already broken before it dispatches anything."""

    def test_submit_on_broken_pool_raises_worker_pool_error(self, ctx):
        with ProcessPoolEvaluator(processes=2) as pool:
            break_pool(pool, ctx)
            with pytest.raises(WorkerPoolError, match="restart"):
                pool.submit(_injected_worker_crash)

    def test_injection_into_broken_pool_retries_without_degrading(self, cfg, ctx):
        expected = expected_fitness(cfg, ctx)
        pop = initial_population(cfg, make_rng(3))
        policy = ResiliencePolicy(retry_max=2, eval_timeout_s=30.0, **NO_SLEEP)
        with ResilientEvaluator(policy=policy, worker_crashes=2) as ev:
            break_pool(ev.inner, ctx)
            ev.evaluate_buffer(pop, ctx)
            assert pop.total.tolist() == expected
            assert not ev.degraded


@pytest.mark.chaos
class TestDegradation:
    def test_degrades_to_serial_after_consecutive_failures(self, cfg, ctx):
        expected = expected_fitness(cfg, ctx)
        inner = _AlwaysBroken()
        rec = MemoryRecorder()
        metrics = MetricsRegistry()
        policy = ResiliencePolicy(retry_max=1, degrade_after=2, **NO_SLEEP)
        with ResilientEvaluator(inner, policy=policy) as ev:
            ev.bind_observability(Tracer([rec]), metrics, scope="test")
            for _ in range(2):  # two consecutive batches exhaust their retries
                pop = initial_population(cfg, make_rng(3))
                ev.evaluate_buffer(pop, ctx)
                assert pop.total.tolist() == expected
            assert ev.degraded
            calls_at_degrade = inner.calls
            # Degraded: later batches go straight to serial, pool untouched.
            pop = initial_population(cfg, make_rng(3))
            ev.evaluate_buffer(pop, ctx)
            assert pop.total.tolist() == expected
            assert inner.calls == calls_at_degrade
        degraded = [e for e in rec.events if e.kind == "evaluator-degraded"]
        assert len(degraded) == 1
        assert metrics.counter("degradations").value == 1

    def test_success_resets_consecutive_failure_count(self, cfg, ctx):
        class FlakyOnce(Evaluator):
            def __init__(self):
                self.fail_next = True
                self.serial = SerialEvaluator()

            def evaluate_buffer(self, buffer, context):
                if self.fail_next:
                    self.fail_next = False
                    raise WorkerPoolError("transient")
                self.serial.evaluate_buffer(buffer, context)

        policy = ResiliencePolicy(retry_max=1, degrade_after=1, **NO_SLEEP)
        with ResilientEvaluator(FlakyOnce(), policy=policy) as ev:
            pop = initial_population(cfg, make_rng(3))
            ev.evaluate_buffer(pop, ctx)  # first attempt fails, retry succeeds
            assert not ev.degraded

    def test_unpicklable_domain_fails_with_clear_error_then_degrades(self, cfg):
        class UnpicklableDomain(HanoiDomain):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        bad = UnpicklableDomain(3)
        bad_ctx = EvaluationContext(bad, bad.initial_state, FitnessFunction(bad))
        # Satellite fix: the bare pool names the domain type instead of an
        # opaque BrokenProcessPool.
        with ProcessPoolEvaluator() as pool:
            with pytest.raises(WorkerPoolError, match="UnpicklableDomain"):
                pool.ensure_started(bad_ctx)
        # The wrapper turns the same failure into a serial fallback.
        policy = ResiliencePolicy(retry_max=1, degrade_after=1, **NO_SLEEP)
        pop = initial_population(cfg, make_rng(3))
        with ResilientEvaluator(policy=policy) as ev:
            ev.evaluate_buffer(pop, bad_ctx)
            assert ev.degraded
            assert pop.evaluated.all()


@pytest.mark.chaos
class TestPlannerIntegration:
    def test_resilient_spec_matches_serial_outcome(self, hanoi3):
        from repro.core import GAPlanner

        cfg = GAConfig(population_size=30, generations=20, max_len=12, init_length=6)
        serial = GAPlanner(hanoi3, cfg, seed=5, evaluator="serial").solve()
        policy = ResiliencePolicy(retry_max=2, eval_timeout_s=30.0, **NO_SLEEP)
        resilient = GAPlanner(
            hanoi3, cfg, seed=5,
            evaluator=lambda: ResilientEvaluator(policy=policy, worker_crashes=1),
        ).solve()
        assert resilient.solved == serial.solved
        assert resilient.goal_fitness == pytest.approx(serial.goal_fitness)
        assert resilient.plan == serial.plan
