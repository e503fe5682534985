"""Event schema tests: dict round-trips and wire stability."""

import pytest

from repro.core import GAConfig, GARun, make_rng
from repro.core.stats import GenerationStats
from repro.obs import (
    EVENT_KINDS,
    CheckpointRecovered,
    CheckpointWrite,
    DecodeCacheSnapshot,
    EvaluationBatch,
    EvaluatorDegraded,
    FaultInjected,
    GenerationComplete,
    IncumbentImproved,
    IslandVelocity,
    PhaseEnd,
    PhaseStart,
    PortfolioCancelled,
    PortfolioMigration,
    ReplanLatency,
    ReplanTriggered,
    RequestArrived,
    RequestCompleted,
    RequestShed,
    RetryAttempt,
    SchedulerGeneration,
    ServiceAdmitted,
    ServiceCompleted,
    ServiceShed,
    ServiceSlice,
    SimulationComplete,
    SweepProgress,
    TrialFinished,
    TrialStarted,
    event_from_dict,
)

SAMPLES = [
    GenerationComplete(
        scope="phase-1", generation=3, best_total=0.8, mean_total=0.4,
        best_goal=0.9, mean_goal=0.5, mean_length=12.5, solved_count=2,
    ),
    PhaseStart(scope="phase-2", phase=2),
    PhaseEnd(scope="phase-2", phase=2, generations=100, plan_length=31, goal_fitness=1.0, solved=True),
    IslandVelocity(
        round_index=3, island=1, strategy="ga:state-aware", velocity=0.02,
        best_total=0.71, stagnation=0,
    ),
    PortfolioMigration(round_index=3, source=0, dest=1, migrants=3, reason="boost"),
    PortfolioCancelled(winner=2, strategy="search:gbfs", tick=4, cancelled=2),
    IncumbentImproved(
        island=2, strategy="search:gbfs", tick=4, goal_fitness=1.0,
        cost_fitness=0.05, plan_length=31, solved=True,
    ),
    EvaluationBatch(n_evaluated=200, seconds=0.5, mode="process", chunks=13, cache_hits=10, cache_misses=3),
    DecodeCacheSnapshot(hits=100, misses=25),
    CheckpointWrite(path="/tmp/c.pkl", generation=50),
    CheckpointRecovered(path="/tmp/c.pkl", generation=40, skipped=2),
    FaultInjected(scope="sim", at=7.5, fault="link-degrade", target="lab--campus", value=4.0),
    RetryAttempt(scope="b", component="broker", attempt=2, backoff_s=1.0, reason="refused"),
    EvaluatorDegraded(failures=2, reason="2 consecutive batches failed"),
    ReplanTriggered(scope="coordination", round_index=1, at=14.2, completed=3, reason="abort"),
    SchedulerGeneration(scope="scheduler", generation=7, best_makespan=120.5, mean_objective=150.0),
    SimulationComplete(makespan=42.0, tasks_done=10, tasks_failed=0, success=True, seconds=0.01),
    TrialStarted(scope="table2-hanoi", experiment="table2-hanoi", trial_id="disks=5#t0", seed=17),
    TrialFinished(
        scope="table2-hanoi", experiment="table2-hanoi", trial_id="disks=5#t0",
        seed=17, status="ok", seconds=0.8, attempt=2,
    ),
    SweepProgress(scope="table2-hanoi", experiment="table2-hanoi", done=3, failed=1, total=30),
    RequestArrived(scope="soak", request_id=4, at=12.5, plan_length=6, estimate=58.0),
    RequestCompleted(
        scope="soak", request_id=4, at=60.2, duration=47.7, replans=1, deadline_met=True,
    ),
    RequestShed(scope="soak", request_id=5, at=33.0, reason="deadline", replans=2),
    ReplanLatency(
        scope="soak", request_id=4, at=40.0, rung="repair",
        reused=4, repaired=2, plan_length=6, seconds=0.004,
    ),
    ServiceAdmitted(
        scope="service", request_id=1, tenant="alpha", domain_hash="ab12cd34ef56ab12",
        queue_depth=3,
    ),
    ServiceShed(
        scope="service", request_id=2, tenant="bravo", reason="queue-full", queue_depth=8,
    ),
    ServiceSlice(
        scope="service", request_id=1, tenant="alpha", slice_index=2, generations=5,
        done=False,
    ),
    ServiceCompleted(
        scope="service", request_id=1, tenant="alpha", solved=True, timed_out=False,
        generations=15, plan_length=7, slices=3, seconds=0.21,
    ),
]


class TestEventRoundTrip:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_dict_round_trip(self, event):
        record = event.to_dict()
        assert record["kind"] == event.kind
        assert event_from_dict(record) == event

    def test_every_kind_registered(self):
        assert {e.kind for e in SAMPLES} == set(EVENT_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "nope"})

    def test_unknown_payload_keys_ignored(self):
        record = PhaseStart(phase=1).to_dict()
        record["future_field"] = 123
        assert event_from_dict(record) == PhaseStart(phase=1)

    def test_hit_rate(self):
        assert DecodeCacheSnapshot(hits=3, misses=1).hit_rate == pytest.approx(0.75)
        assert DecodeCacheSnapshot(hits=0, misses=0).hit_rate == 0.0


class TestFromStats:
    def test_matches_generation_stats(self, hanoi3):
        cfg = GAConfig(population_size=10, generations=2, max_len=35, init_length=7)
        run = GARun(hanoi3, cfg, make_rng(0))
        stats: GenerationStats = run.step()
        event = GenerationComplete.from_stats(stats, scope="s")
        assert event.generation == stats.generation
        assert event.best_total == stats.best_total
        assert event.solved_count == stats.solved_count
        assert event.scope == "s"
