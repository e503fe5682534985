"""Run-scheduler tests: admission, fair share, deadlines, slicing, frames."""

import time

import pytest

from repro.core.encoding import decode
from repro.obs import MemoryRecorder, MetricsRegistry, Tracer
from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    SHED,
    PlanRequest,
    RunScheduler,
    ServicePool,
    default_max_len,
)
from repro.service.cache import MAX_IDLE_PAIRS


class FakeClock:
    """Deterministic clock advancing *step* seconds per reading."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_scheduler(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return RunScheduler(**kwargs)


def request(**overrides):
    base = dict(domain="hanoi", size=3, seed=3, budget=20, population=20)
    base.update(overrides)
    return PlanRequest(**base)


class TestLifecycle:
    def test_submit_drain_produces_result_frames_in_order(self):
        scheduler = make_scheduler()
        frames = []
        run = scheduler.submit(request(), subscriber=frames.append)
        assert run.state == QUEUED
        scheduler.drain()
        assert run.state == DONE
        assert frames[0]["type"] == "accepted" and frames[0]["queue_depth"] == 1
        assert frames[-1]["type"] == "result"
        assert frames[-1]["solved"] is True and frames[-1]["plan_length"] == 7
        assert set(frames[-1]) == {  # the result frame documented in docs/service.md
            "type", "id", "solved", "timed_out", "plan", "plan_length",
            "goal_fitness", "generations", "slices", "warm", "seconds",
        }
        kinds = {f["type"] for f in frames[1:-1]}
        assert kinds <= {"incumbent"}  # no stream=True, so no event frames

    def test_long_requests_take_multiple_slices(self):
        scheduler = make_scheduler(slice_gens=2)
        run = scheduler.submit(request(seed=0, budget=9, population=10))
        scheduler.drain()
        assert run.state == DONE
        assert run.slices >= 2
        assert run.result["slices"] == run.slices

    def test_incumbent_frames_improve_monotonically(self):
        scheduler = make_scheduler()
        frames = []
        scheduler.submit(request(), subscriber=frames.append)
        scheduler.drain()
        goals = [f["goal_fitness"] for f in frames if f["type"] == "incumbent"]
        assert goals, "expected at least one incumbent frame"
        assert goals == sorted(goals)
        assert any(f["solved"] for f in frames if f["type"] == "incumbent")

    def test_stream_requests_get_per_slice_event_frames(self):
        scheduler = make_scheduler(slice_gens=2)
        frames = []
        run = scheduler.submit(
            request(seed=0, budget=6, population=10, stream=True),
            subscriber=frames.append,
        )
        scheduler.drain()
        events = [f for f in frames if f["type"] == "event"]
        assert len(events) == run.slices
        assert all(f["event"]["kind"] == "service-slice" for f in events)
        assert events[-1]["event"]["done"] is True

    def test_second_same_config_request_is_warm(self):
        scheduler = make_scheduler()
        cold = scheduler.submit(request())
        scheduler.drain()
        warm = scheduler.submit(request())
        scheduler.drain()
        assert cold.result["warm"] is False and warm.result["warm"] is True

    def test_per_request_metrics_merge_into_shared_registry(self):
        metrics = MetricsRegistry()
        scheduler = make_scheduler(metrics=metrics)
        scheduler.submit(request())
        scheduler.drain()
        assert metrics.counters["evals"].value > 0
        assert metrics.counters["service_completed"].value == 1
        assert metrics.histograms["service_latency"].count == 1

    def test_portfolio_mode_races_and_streams_incumbents(self):
        scheduler = make_scheduler()
        frames = []
        run = scheduler.submit(
            request(mode="portfolio", portfolio="ga,search:gbfs", budget=10, population=10),
            subscriber=frames.append,
        )
        scheduler.drain()
        assert run.state == DONE and run.result["solved"] is True
        assert run.result["slices"] == 1
        assert any(f["type"] == "incumbent" for f in frames)


class TestAdmission:
    def test_queue_cap_sheds_with_queue_full(self):
        scheduler = make_scheduler(queue_cap=2)
        frames = []
        first = scheduler.submit(request(seed=1))
        second = scheduler.submit(request(seed=2))
        third = scheduler.submit(request(seed=3), subscriber=frames.append)
        assert first.state == QUEUED and second.state == QUEUED
        assert third.state == SHED and third.shed_reason == "queue-full"
        assert frames == [{"type": "shed", "id": 3, "reason": "queue-full"}]
        assert scheduler.metrics.counters["service_shed"].value == 1

    def test_unknown_domain_fails_with_error_frame(self):
        scheduler = make_scheduler()
        frames = []
        run = scheduler.submit(
            PlanRequest(domain="nope", size=3), subscriber=frames.append
        )
        assert run.state == FAILED and "unknown domain" in run.error
        assert frames[0]["type"] == "error"
        assert scheduler.metrics.counters["service_failed"].value == 1

    def test_underivable_max_len_fails(self):
        assert default_max_len("blocks", 4) is None
        run = make_scheduler().submit(PlanRequest(domain="blocks", size=4))
        assert run.state == FAILED and "max_len" in run.error

    def test_portfolio_mode_without_spec_fails(self):
        run = make_scheduler().submit(request(mode="portfolio"))
        assert run.state == FAILED and "portfolio" in run.error

    def test_cancel_before_execution_sheds_as_cancelled(self):
        scheduler = make_scheduler()
        run = scheduler.submit(request())
        scheduler.cancel(run)
        scheduler.drain()
        assert run.state == SHED and run.shed_reason == "cancelled"


class TestFairShare:
    def completion_order(self):
        scheduler = make_scheduler(queue_cap=10)
        order = []

        def subscriber_for(name):
            def subscriber(frame):
                if frame["type"] == "result":
                    order.append(name)

            return subscriber

        for i in range(3):
            scheduler.submit(
                request(tenant="flood", seed=i, budget=2, population=10),
                subscriber=subscriber_for(f"flood-{i}"),
            )
        scheduler.submit(
            request(tenant="alpha", seed=9, budget=2, population=10),
            subscriber=subscriber_for("alpha"),
        )
        scheduler.drain()
        return order

    def test_deficit_round_robin_interleaves_tenants(self):
        # alpha arrived last but has no consumed slices, so it runs second.
        assert self.completion_order() == [
            "flood-0",
            "alpha",
            "flood-1",
            "flood-2",
        ]


class TestDeadlines:
    def test_deadline_expired_while_queued_is_shed_without_running(self):
        # Each clock reading advances 3s: the first request's completion
        # pushes time past the second's 5s deadline before it is picked.
        scheduler = make_scheduler(clock=FakeClock(step=3.0))
        first = scheduler.submit(request(seed=1, budget=2, population=10))
        late = scheduler.submit(
            request(seed=2, budget=2, population=10, deadline_s=5.0)
        )
        scheduler.drain()
        assert first.state == DONE
        assert late.state == SHED and late.shed_reason == "deadline-queued"
        assert late.slices == 0  # never executed

    def test_deadline_expired_while_running_returns_timed_out_result(self):
        # Deadline outlives the pick check (3s elapsed <= 5s) but expires
        # during the first slice, so the run completes as timed_out with
        # its best incumbent instead of being shed.
        scheduler = make_scheduler(clock=FakeClock(step=3.0))
        run = scheduler.submit(request(seed=0, budget=30, deadline_s=5.0))
        scheduler.drain()
        assert run.state == DONE
        assert run.result["timed_out"] is True
        assert run.slices == 1
        assert run.result["generations"] < 30

    def test_no_deadline_never_times_out(self):
        scheduler = make_scheduler(clock=FakeClock(step=10.0))
        run = scheduler.submit(request(seed=0, budget=6, population=10))
        scheduler.drain()
        assert run.state == DONE and run.result["timed_out"] is False


class TestIntrospection:
    def test_stats_snapshot_shape(self):
        scheduler = make_scheduler()
        scheduler.submit(request())
        scheduler.drain()
        stats = scheduler.stats()
        assert stats["counters"]["service_requests"] == 1
        assert stats["counters"]["service_completed"] == 1
        assert stats["running"] == 0 and stats["queues"] == {}
        assert stats["cache"]["warm_misses"] == 1
        assert "service_latency_p50_ms" in stats["derived"]

    def test_service_tracer_sees_admission_and_completion(self):
        recorder = MemoryRecorder()
        scheduler = make_scheduler(tracer=Tracer([recorder]))
        scheduler.submit(request())
        scheduler.drain()
        kinds = [e.kind for e in recorder.events]
        assert kinds[0] == "service-admitted"
        assert kinds[-1] == "service-completed"
        assert "service-slice" in kinds


def memo_share(run):
    """Share of *run*'s evaluations served from the fitness memo."""
    counters = run.metrics.counters
    skipped = counters["evals_skipped"].value if "evals_skipped" in counters else 0
    return skipped / counters["evals"].value


def answer(run):
    """The result frame without its per-request fields."""
    return {k: v for k, v in run.result.items() if k not in ("id", "seconds", "warm")}


class TestMemoLifetime:
    """The fitness memo lives as long as a request trajectory."""

    def test_repeats_replay_entirely_from_the_memo_with_cold_answers(self):
        scheduler = make_scheduler()
        runs = []
        for _ in range(3):
            runs.append(scheduler.submit(request()))
            scheduler.drain()
        cold = make_scheduler()  # a fresh scheduler's first request is cold
        baseline = cold.submit(request())
        cold.drain()
        assert memo_share(runs[0]) < 1.0
        assert [memo_share(run) for run in runs[1:]] == [1.0, 1.0]
        assert [answer(run) for run in runs] == [answer(baseline)] * 3

    @pytest.mark.parametrize("domain, size", [("hanoi", 5), ("tile", 3)])
    def test_a_replay_answers_like_a_cold_run_with_the_reference_best_plan(self, domain, size):
        # Memo hits write fitness and no plan, so the replay's best plan is
        # decoded lazily; it must be the reference decoder's plan.
        shape = dict(domain=domain, size=size, seed=9, budget=8, population=30)
        cold = make_scheduler()
        baseline = cold.submit(request(**shape))
        cold.drain()
        scheduler = make_scheduler()
        runs = [scheduler.submit(request(**shape))]
        scheduler.drain()
        runs.append(scheduler.submit(request(**shape)))
        scheduler.drain()
        assert memo_share(runs[1]) == 1.0
        assert answer(runs[1]) == answer(baseline)
        best = runs[1]._ga.best
        start = runs[1]._ga.start_state
        assert best.decoded == decode(best.genes, runs[1]._ga.domain, start)

    def test_another_seed_between_repeats_does_not_disturb_the_replay(self):
        scheduler = make_scheduler()
        first = scheduler.submit(request(seed=3))
        other = scheduler.submit(request(seed=4))
        scheduler.drain()
        again = scheduler.submit(request(seed=3))
        scheduler.drain()
        assert memo_share(again) == 1.0
        assert memo_share(other) < 1.0
        assert answer(again) == answer(first)

    def test_distinct_seeds_keep_at_most_32_memos_least_recently_served_out(self):
        metrics = MetricsRegistry()
        scheduler = make_scheduler(metrics=metrics, queue_cap=64)
        for seed in range(40):
            scheduler.submit(request(seed=seed, budget=2, population=10))
        scheduler.drain()
        memos = scheduler.stats()["cache"]["memos"]
        assert memos["trajectories"] == MAX_IDLE_PAIRS
        assert metrics.counters["service_memo_evictions"].value == 40 - MAX_IDLE_PAIRS
        newest = scheduler.submit(request(seed=39, budget=2, population=10))
        oldest = scheduler.submit(request(seed=0, budget=2, population=10))
        scheduler.drain()
        assert memo_share(newest) == 1.0
        assert memo_share(oldest) < 1.0

    @pytest.mark.parametrize(
        "overrides",
        [dict(evaluator="resilient"), dict(mode="portfolio", portfolio="ga")],
        ids=["resilient", "portfolio"],
    )
    def test_requests_off_the_engine_memo_retain_nothing(self, overrides):
        scheduler = make_scheduler()
        run = scheduler.submit(request(budget=3, population=10, **overrides))
        scheduler.drain()
        assert run.state == DONE
        assert scheduler.stats()["cache"]["memos"] == {"trajectories": 0, "entries": 0}

    def test_concurrent_same_trajectory_requests_answer_identically(self):
        cold = make_scheduler(slice_gens=1)
        baseline = cold.submit(request(seed=5, budget=30))
        cold.drain()
        scheduler = make_scheduler(queue_cap=8, slice_gens=1)
        runs = [scheduler.submit(request(seed=5, budget=30))]
        scheduler.drain()
        # One of these leases the retained memo, the others start fresh.
        runs += [scheduler.submit(request(seed=5, budget=30)) for _ in range(4)]
        with ServicePool(scheduler, workers=2):
            assert scheduler.wait_idle(timeout=120)
        assert all(run.state == DONE for run in runs)
        assert [answer(run) for run in runs] == [answer(baseline)] * 5
        assert scheduler.stats()["cache"]["memos"]["trajectories"] == 1


class TestServicePool:
    def test_pool_completes_all_requests(self):
        scheduler = make_scheduler(queue_cap=10)
        runs = [scheduler.submit(request(seed=s, budget=10)) for s in range(5)]
        with ServicePool(scheduler, workers=3):
            assert scheduler.wait_idle(timeout=120)
        assert all(run.state == DONE for run in runs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ServicePool(make_scheduler(), workers=0)

    def test_invalid_idle_wait_rejected(self):
        with pytest.raises(ValueError):
            ServicePool(make_scheduler(), idle_wait=0.0)

    def test_idle_pool_picks_up_submission_without_polling(self):
        # idle_wait is deliberately far longer than the whole test: a
        # parked worker must be woken by submit's notify, not by sleeping
        # out the idle bound (the pre-fix behaviour polled every second).
        scheduler = make_scheduler()
        with ServicePool(scheduler, workers=2, idle_wait=60.0):
            time.sleep(0.3)  # let both workers park on the condition
            t0 = time.monotonic()
            run = scheduler.submit(request(budget=5, population=10))
            assert scheduler.wait_idle(timeout=30)
            elapsed = time.monotonic() - t0
        assert run.state == DONE
        assert elapsed < 10.0  # solve time only — nowhere near idle_wait

    def test_stop_wakes_parked_workers_promptly(self):
        pool = ServicePool(make_scheduler(), workers=2, idle_wait=60.0)
        pool.start()
        time.sleep(0.3)  # workers park with nothing queued
        t0 = time.monotonic()
        pool.stop()
        assert time.monotonic() - t0 < 5.0  # wake_all, not idle_wait

