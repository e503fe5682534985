"""Integration tests: the planner stack reporting through repro.obs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EvaluationContext,
    FitnessFunction,
    GAConfig,
    GARun,
    MultiPhaseConfig,
    PopulationBuffer,
    ProcessPoolEvaluator,
    SerialEvaluator,
    make_rng,
    ring_portfolio,
    run_multiphase,
    run_portfolio,
)
from repro.core.checkpoint import load_checkpoint, restore_run, save_checkpoint
from repro.core.decode_engine import DecodeEngine
from repro.obs import MemoryRecorder, MetricsRegistry, Tracer, observe
from repro.scheduling import ETCParams, GASchedulerConfig, ga_schedule, generate_etc


def _cfg(**overrides):
    base = dict(
        population_size=10, generations=4, max_len=35, init_length=7, stop_on_goal=False
    )
    base.update(overrides)
    return GAConfig(**base)


def _engine_evaluator():
    return SerialEvaluator(engine=DecodeEngine())


@pytest.fixture
def recorder():
    return MemoryRecorder()


@pytest.fixture
def tracer(recorder):
    return Tracer([recorder])


class TestGARunInstrumentation:
    def test_generation_events_per_generation(self, hanoi3, tracer, recorder):
        GARun(hanoi3, _cfg(), make_rng(0), tracer=tracer).run()
        gens = recorder.of_kind("generation")
        assert [e.generation for e in gens] == [0, 1, 2, 3]

    def test_evaluation_batches_and_cache_snapshot(self, hanoi3, tracer, recorder):
        # An injected engine exercises the object decode path, whose
        # decode cache backs the end-of-run snapshot event.
        GARun(hanoi3, _cfg(), make_rng(0), evaluator=_engine_evaluator(), tracer=tracer).run()
        batches = recorder.of_kind("evaluation-batch")
        # One batch per generation with pending work; untouched copies keep
        # their fitness, so later generations may evaluate fewer than pop.
        assert 1 <= len(batches) <= 4
        assert all(b.mode == "serial" for b in batches)
        assert all(b.n_evaluated > 0 for b in batches)
        assert 10 <= sum(b.n_evaluated for b in batches) <= 40
        snapshots = recorder.of_kind("decode-cache")
        assert len(snapshots) == 1
        assert snapshots[0].hits + snapshots[0].misses > 0

    def test_vector_path_batches_without_cache_snapshot(self, hanoi3, tracer, recorder):
        # Hanoi has a kernel, so the default run takes the vectorised decode
        # path: batches still stream, but there is no decode cache to snapshot.
        GARun(hanoi3, _cfg(), make_rng(0), tracer=tracer).run()
        batches = recorder.of_kind("evaluation-batch")
        assert 1 <= len(batches) <= 4
        assert all(b.mode == "serial" for b in batches)
        assert all(b.n_evaluated > 0 for b in batches)
        assert recorder.of_kind("decode-cache") == []

    def test_metrics_timers_and_counters(self, hanoi3):
        metrics = MetricsRegistry()
        GARun(hanoi3, _cfg(), make_rng(1), evaluator=_engine_evaluator(), metrics=metrics).run()
        assert 10 <= metrics.counters["evals"].value <= 40
        for name in ("eval_batch", "decode", "fitness", "selection", "variation"):
            assert metrics.timers[name].count > 0, name
        hit = metrics.counters["decode_cache_hits"].value
        miss = metrics.counters["decode_cache_misses"].value
        assert hit + miss > 0

    def test_vector_path_metrics(self, hanoi3):
        metrics = MetricsRegistry()
        GARun(hanoi3, _cfg(), make_rng(1), metrics=metrics).run()
        assert 10 <= metrics.counters["evals"].value <= 40
        for name in ("eval_batch", "decode", "selection", "variation"):
            assert metrics.timers[name].count > 0, name
        assert metrics.counters["vector_rows"].value == metrics.counters["evals"].value
        assert metrics.counters["vector_genes"].value > 0

    def test_uninstrumented_run_emits_nothing(self, hanoi3, recorder):
        GARun(hanoi3, _cfg(), make_rng(2)).run()
        assert len(recorder) == 0

    def test_ambient_observe_context(self, hanoi3, recorder):
        metrics = MetricsRegistry()
        with observe(tracer=Tracer([recorder]), metrics=metrics):
            GARun(hanoi3, _cfg(), make_rng(3)).run()
        assert recorder.of_kind("generation")
        assert metrics.counters["evals"].value >= 10
        # The pair is popped on exit: a new run is silent again.
        before = len(recorder)
        GARun(hanoi3, _cfg(), make_rng(4)).run()
        assert len(recorder) == before


class TestDriverInstrumentation:
    def test_multiphase_phase_events(self, hanoi3, tracer, recorder):
        mp = MultiPhaseConfig(max_phases=3, phase=_cfg())
        result = run_multiphase(hanoi3, mp, make_rng(0), tracer=tracer)
        starts = recorder.of_kind("phase-start")
        ends = recorder.of_kind("phase-end")
        assert [e.phase for e in starts] == list(range(1, result.n_phases + 1))
        assert len(ends) == result.n_phases
        assert ends[0].generations == 4
        # Generation events are scoped per phase.
        scopes = {e.scope for e in recorder.of_kind("generation")}
        assert scopes == {f"phase-{i}" for i in range(1, result.n_phases + 1)}

    def test_island_migration_events(self, hanoi3, tracer, recorder):
        ring = ring_portfolio(_cfg(generations=6), 3, interval=2, migration_size=1)
        result = run_portfolio(hanoi3, ring, make_rng(0), tracer=tracer)
        # Rounds end after generations 2, 4 and 6; the last round ends the
        # run, so two migrations of one ring edge per island.
        migrations = recorder.of_kind("portfolio-migration")
        assert result.migrations == 2
        assert [(m.round_index, m.source, m.dest) for m in migrations] == [
            (r, (i - 1) % 3, i) for r in (1, 2) for i in range(3)
        ]
        assert all(m.migrants == 1 and m.reason == "ring" for m in migrations)
        scopes = {e.scope for e in recorder.of_kind("generation")}
        assert scopes == {"island-0", "island-1", "island-2"}

    def test_scheduler_generation_events(self, tracer, recorder):
        etc = generate_etc(ETCParams(n_tasks=16, n_machines=4), make_rng(0))
        metrics = MetricsRegistry()
        ga_schedule(etc, GASchedulerConfig(generations=5, population_size=20),
                    make_rng(1), tracer=tracer, metrics=metrics)
        events = recorder.of_kind("scheduler-generation")
        assert [e.generation for e in events] == list(range(5))
        assert all(e.best_makespan > 0 for e in events)
        assert metrics.counters["sched_evals"].value == 100

    def test_simulator_events(self, tracer):
        from repro.grid import GridSimulator, imaging_pipeline, plan_to_activity_graph
        from repro.planning.search import goal_gap, greedy_best_first

        recorder = tracer.sinks[0]
        onto, domain = imaging_pipeline()
        r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
        graph = plan_to_activity_graph(domain, r.plan)
        metrics = MetricsRegistry()
        result = GridSimulator(onto, tracer=tracer, metrics=metrics).execute(
            graph, domain.initial_state
        )
        events = recorder.of_kind("sim-complete")
        assert len(events) == 1
        assert events[0].success == result.success
        assert events[0].makespan == pytest.approx(result.makespan)
        assert metrics.counters["sim_tasks_done"].value == len(result.completed)


class TestCheckpointObservability:
    def test_checkpoint_write_event(self, hanoi3, tmp_path, tracer, recorder):
        run = GARun(hanoi3, _cfg(), make_rng(5), tracer=tracer)
        run.step()
        save_checkpoint(run, tmp_path / "c.pkl")
        events = recorder.of_kind("checkpoint")
        assert len(events) == 1
        assert events[0].generation == run.generation

    def test_resume_does_not_double_count_generations(self, hanoi3, tmp_path, tracer, recorder):
        cfg = _cfg(generations=6)
        run = GARun(hanoi3, cfg, make_rng(6), tracer=tracer)
        for _ in range(3):
            run.step()
        save_checkpoint(run, tmp_path / "c.pkl")
        evals_before = len(recorder.of_kind("evaluation-batch"))

        resumed = GARun(hanoi3, cfg, make_rng(0), tracer=tracer)
        restore_run(resumed, load_checkpoint(tmp_path / "c.pkl"))
        # Restoring re-evaluates the best individual as bookkeeping; that
        # must not show up in the trace.
        assert len(recorder.of_kind("evaluation-batch")) == evals_before
        for _ in range(3):
            resumed.step()
        generations = [e.generation for e in recorder.of_kind("generation")]
        assert generations == [0, 1, 2, 3, 4, 5]
        assert len(set(generations)) == len(generations)

    def test_restore_rebinds_observability(self, hanoi3, tmp_path, tracer, recorder):
        run = GARun(hanoi3, _cfg(), make_rng(7), tracer=tracer)
        run.step()
        save_checkpoint(run, tmp_path / "c.pkl")
        resumed = GARun(hanoi3, _cfg(), make_rng(0), tracer=tracer)
        restore_run(resumed, load_checkpoint(tmp_path / "c.pkl"))
        before = len(recorder.of_kind("evaluation-batch"))
        resumed.step()
        assert len(recorder.of_kind("evaluation-batch")) == before + 1


class TestSerialVsProcessEquivalence:
    """Serial and process-pool evaluation must report the same aggregates."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_aggregate_metrics_equivalent(self, seed):
        from repro.domains import BlocksWorldDomain

        # No kernel, so both sides decode on the engine (the vector walk
        # has no decode-cache traffic to compare).
        domain = BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])
        rng = make_rng(seed)
        genomes = [rng.random(int(rng.integers(1, 20))) for _ in range(12)]
        context = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))

        serial_metrics = MetricsRegistry()
        serial = SerialEvaluator()
        serial.bind_observability(Tracer([MemoryRecorder()]), serial_metrics)
        serial.evaluate_buffer(PopulationBuffer.from_genomes(genomes), context)

        pool_metrics = MetricsRegistry()
        pool_recorder = MemoryRecorder()
        with ProcessPoolEvaluator(processes=2) as pool:
            pool.bind_observability(Tracer([pool_recorder]), pool_metrics)
            pool.evaluate_buffer(PopulationBuffer.from_genomes(genomes), context)

        assert serial_metrics.counters["evals"].value == pool_metrics.counters["evals"].value
        # Decode work is identical, so total cache traffic (hits + misses)
        # matches; the split may differ because workers hold separate caches.
        serial_traffic = (
            serial_metrics.counters["decode_cache_hits"].value
            + serial_metrics.counters["decode_cache_misses"].value
        )
        pool_traffic = (
            pool_metrics.counters["decode_cache_hits"].value
            + pool_metrics.counters["decode_cache_misses"].value
        )
        assert serial_traffic == pool_traffic
        batches = pool_recorder.of_kind("evaluation-batch")
        assert len(batches) == 1
        assert batches[0].mode == "process"
        assert batches[0].n_evaluated == len(genomes)
        # 12 rows over 2 processes: chunks of ceil(12 / 8) = 2 rows.
        assert batches[0].chunks == 6
