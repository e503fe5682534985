"""Portfolio engine: racing, cancellation, anytime API, deterministic replay."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAConfig,
    GAPlanner,
    PortfolioSpec,
    StrategySpec,
    build_evaluators,
    canonical_events,
    default_portfolio,
    make_rng,
    parse_portfolio,
    run_portfolio,
)
from repro.core.decode_engine import DecodeEngine
from repro.core.parallel import ProcessPoolEvaluator, SerialEvaluator
from repro.core.portfolio import _build_workers
from repro.domains import HanoiDomain
from repro.obs import MemoryRecorder, MetricsRegistry, Tracer
from tests.oracle import ReferenceEvaluator


def _ga(pop=24, gens=40, **kw):
    return GAConfig(
        population_size=pop, generations=gens, max_len=40, init_length=10, **kw
    )


def _spec(*strategies, **kw):
    kw.setdefault("interval", 3)
    kw.setdefault("migration_size", 2)
    return PortfolioSpec(strategies=tuple(strategies), **kw)


#: Three strategy mixes exercised by the determinism suite: GA-only (full
#: migration churn), GA + search race, and engine-heterogeneous GAs (the
#: latter also needs the evaluators from ``MIX_EVALUATORS``).
MIXES = {
    "ga-only": _spec(
        StrategySpec(kind="ga", ga=_ga()),
        StrategySpec(kind="ga", ga=_ga(pop=16, crossover="state-aware")),
        StrategySpec(kind="ga", ga=_ga(crossover="mixed", mutation_rate=0.05)),
    ),
    "ga-vs-search": _spec(
        StrategySpec(kind="ga", ga=_ga()),
        StrategySpec(kind="ga", ga=_ga(crossover="state-aware")),
        StrategySpec(kind="search", algorithm="gbfs", expansions_per_tick=8),
    ),
    "engines": _spec(
        StrategySpec(kind="ga", ga=_ga()),
        StrategySpec(kind="ga", ga=_ga()),
        StrategySpec(kind="search", algorithm="astar", expansions_per_tick=16),
    ),
}

#: Per-mix GA-island evaluator factories, in island order: the "engines" mix
#: runs its first GA on the reference oracle, its second on the decode engine.
MIX_EVALUATORS = {
    "engines": (ReferenceEvaluator, lambda: SerialEvaluator(engine=DecodeEngine())),
}


def _evaluator_factory(mix):
    factories = MIX_EVALUATORS.get(mix)
    if factories is None:
        return None
    remaining = iter(factories)
    return lambda: next(remaining)()


class TestSpecValidation:
    def test_strategy_requires_ga_config(self):
        with pytest.raises(ValueError, match="requires a GAConfig"):
            StrategySpec(kind="ga")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            StrategySpec(kind="annealing")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown search algorithm"):
            StrategySpec(kind="search", algorithm="dfs")

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            PortfolioSpec(strategies=())

    def test_migration_validated_against_smallest_ga_island(self):
        small = StrategySpec(kind="ga", ga=_ga(pop=8))
        big = StrategySpec(kind="ga", ga=_ga(pop=100))
        with pytest.raises(ValueError, match="smallest GA island"):
            PortfolioSpec(strategies=(small, big), migration_size=8)
        # fine when below the smallest population
        PortfolioSpec(strategies=(small, big), migration_size=7)

    def test_labels(self):
        assert StrategySpec(kind="ga", ga=_ga()).label == "ga:random"
        assert StrategySpec(kind="search", algorithm="ucs").label == "search:ucs"
        assert StrategySpec(kind="search", name="mine").label == "mine"

    def test_parse_portfolio(self):
        spec = parse_portfolio("ga, ga:state-aware ,search:gbfs", _ga())
        assert [s.label for s in spec.strategies] == [
            "ga:random", "ga:state-aware", "search:gbfs",
        ]
        with pytest.raises(ValueError, match="unknown strategy"):
            parse_portfolio("ga,annealing", _ga())

    def test_default_portfolio_shape(self):
        spec = default_portfolio(_ga(), n_ga=2, search=("gbfs",))
        assert len(spec.strategies) == 3
        assert spec.ga_indices == (0, 1)


class TestRace:
    def test_search_island_wins_and_cancels_gas(self, hanoi5):
        res = run_portfolio(hanoi5, MIXES["ga-vs-search"], make_rng(7))
        assert res.solved
        assert res.winner == 2  # gbfs cracks hanoi-5 in a handful of ticks
        assert res.cancelled == 2
        assert res.first_solution_tick is not None
        assert res.first_solution_wall_s is not None
        # the winning plan actually reaches the goal
        state = hanoi5.initial_state
        for op in res.plan:
            state = hanoi5.apply(state, op)
        assert hanoi5.is_goal(state)

    def test_ga_only_portfolio_solves_hanoi3(self, hanoi3):
        res = run_portfolio(hanoi3, MIXES["ga-only"], make_rng(3))
        assert res.solved
        assert res.strategies[res.winner].startswith("ga:")
        assert res.histories[res.winner] is not None

    def test_no_thread_leak(self, hanoi3):
        before = threading.active_count()
        run_portfolio(hanoi3, MIXES["ga-vs-search"], make_rng(1))
        assert threading.active_count() == before

    def test_race_starts_no_thread(self, hanoi5):
        before = set(threading.enumerate())
        during = []
        run_portfolio(
            hanoi5, MIXES["ga-vs-search"], make_rng(7),
            on_incumbent=lambda inc: during.append(set(threading.enumerate())),
        )
        assert during
        for seen in during:
            assert not [t.name for t in seen if t.name.startswith("portfolio")]
            assert seen == before
        assert set(threading.enumerate()) == before

    def test_unsolved_portfolio_reports_best_effort(self, hanoi5):
        # Tiny budgets: nobody solves, but the GA best-so-far is reported.
        spec = _spec(
            StrategySpec(kind="ga", ga=_ga(gens=2)),
            StrategySpec(kind="ga", ga=_ga(gens=2, crossover="state-aware")),
            max_ticks=2,
        )
        res = run_portfolio(hanoi5, spec, make_rng(0))
        assert not res.solved
        assert res.winner is None and res.cancelled == 0
        assert res.best is not None and 0.0 <= res.best.goal_fitness < 1.0

    def test_grace_window_keeps_winner(self, hanoi5):
        spec = MIXES["ga-vs-search"].replace(grace_ms=50.0)
        res = run_portfolio(hanoi5, spec, make_rng(7))
        base = run_portfolio(hanoi5, MIXES["ga-vs-search"], make_rng(7))
        assert res.winner == base.winner
        assert res.plan == base.plan

    def test_incumbents_monotone_improving(self, hanoi5):
        res = run_portfolio(hanoi5, MIXES["ga-vs-search"], make_rng(11))
        keys = [inc.sort_key() for inc in res.incumbents]
        assert keys == sorted(keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestStopOnGoal:
    def test_islands_without_stop_on_goal_run_to_budget(self):
        ga = _ga(pop=30, gens=40, stop_on_goal=False)
        spec = _spec(*[StrategySpec(kind="ga", ga=ga)] * 4)
        res = run_portfolio(HanoiDomain(4), spec, make_rng(0))
        assert res.ticks_run == [40, 40, 40, 40]
        assert res.solved and res.best.solved
        assert res.winner is None and res.cancelled == 0
        assert res.first_solution_wall_s is not None


class TestSharedDomain:
    """A race decodes the caller's domain, with one engine when it has no
    kernel."""

    def test_serial_race_shares_the_callers_domain_and_engine(self, hanoi3):
        spec = _spec(
            StrategySpec(kind="ga", ga=_ga()),
            StrategySpec(kind="ga", ga=_ga(crossover="state-aware")),
            StrategySpec(kind="search", algorithm="gbfs"),
        )
        workers = _build_workers(spec, hanoi3, make_rng(0), None, None, Tracer())
        ga = workers[:2]
        assert all(w.run.domain is hanoi3 for w in ga)
        assert workers[2].domain is hanoi3
        assert ga[0].evaluator._engine is ga[1].evaluator._engine


class TestDeterministicReplay:
    """Two races with the same seed must match exactly."""

    @staticmethod
    def _run(domain, mix, seed):
        recorder = MemoryRecorder()
        metrics = MetricsRegistry()
        result = run_portfolio(
            domain,
            MIXES[mix],
            make_rng(seed),
            tracer=Tracer([recorder]),
            metrics=metrics,
            evaluator_factory=_evaluator_factory(mix),
        )
        return result, canonical_events(recorder.events), metrics.summary()

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=2, deadline=None)
    def test_serial_reproduces_concurrent_run(self, mix, seed):
        # The id predates the one race schedule; it now replays a run.
        first, first_events, first_metrics = self._run(HanoiDomain(3), mix, seed)
        again, again_events, again_metrics = self._run(HanoiDomain(3), mix, seed)
        assert again.winner == first.winner
        assert again.plan == first.plan
        assert again.first_solution_tick == first.first_solution_tick
        assert again.ticks_run == first.ticks_run
        assert again.rounds == first.rounds
        assert again.migrations == first.migrations
        assert again_events == first_events
        assert again_metrics["counters"] == first_metrics["counters"]

    def test_event_stream_has_portfolio_vocabulary(self, hanoi3):
        _, events, _ = self._run(hanoi3, "ga-only", 5)
        kinds = {e["kind"] for e in events}
        assert "generation" in kinds
        assert "incumbent" in kinds
        assert "portfolio-cancelled" in kinds or "island-velocity" in kinds


class TestEvaluatorLifetimes:
    def test_factory_failure_closes_built_evaluators(self, hanoi3):
        built = []

        def factory():
            if len(built) == 1:
                raise RuntimeError("boom")
            evaluator = SerialEvaluator()
            built.append(evaluator)
            return evaluator

        closed = []
        original = SerialEvaluator.close

        def tracking_close(self):
            closed.append(self)
            original(self)

        SerialEvaluator.close = tracking_close
        try:
            with pytest.raises(RuntimeError, match="boom"):
                run_portfolio(hanoi3, MIXES["ga-only"], make_rng(0), evaluator_factory=factory)
        finally:
            SerialEvaluator.close = original
        assert closed == built

    def test_mid_run_exception_closes_evaluators(self, hanoi3):
        closed = []

        class Exploding(SerialEvaluator):
            calls = 0

            def evaluate_buffer(self, buffer, context):
                Exploding.calls += 1
                if Exploding.calls > 2:
                    raise RuntimeError("mid-run failure")
                return super().evaluate_buffer(buffer, context)

            def close(self):
                closed.append(self)
                super().close()

        with pytest.raises(RuntimeError, match="mid-run failure"):
            run_portfolio(
                hanoi3, MIXES["ga-only"], make_rng(0), evaluator_factory=Exploding
            )
        assert len(closed) == 3  # one per GA island, all closed on error

    def test_build_evaluators_helper(self):
        calls = []

        def factory():
            if len(calls) == 2:
                raise RuntimeError("third build fails")
            evaluator = SerialEvaluator()
            calls.append(evaluator)
            return evaluator

        with pytest.raises(RuntimeError, match="third build fails"):
            build_evaluators(factory, 3)


class TestPlannerIntegration:
    def test_portfolio_mode_outcome(self, hanoi3):
        planner = GAPlanner(
            hanoi3, _ga(), seed=3, portfolio=default_portfolio(_ga(), n_ga=2)
        )
        assert planner.mode == "portfolio"
        outcome = planner.solve()
        assert outcome.mode == "portfolio"
        assert outcome.solved
        assert outcome.incumbents
        assert outcome.incumbents[-1].solved
        assert outcome.plan_length == len(outcome.plan)

    def test_int_convenience_builds_default_portfolio(self, hanoi3):
        planner = GAPlanner(hanoi3, _ga(), seed=1, portfolio=2)
        assert planner.mode == "portfolio"
        assert len(planner.portfolio.strategies) == 3  # 2 GA + 1 search

    def test_on_incumbent_callback_streams(self, hanoi3):
        seen = []
        planner = GAPlanner(hanoi3, _ga(), seed=3, portfolio=2)
        outcome = planner.solve(on_incumbent=seen.append)
        assert tuple(seen) == outcome.incumbents

    def test_on_incumbent_rejected_outside_portfolio(self, hanoi3):
        planner = GAPlanner(hanoi3, _ga(), seed=3)
        with pytest.raises(ValueError, match="portfolio"):
            planner.solve(on_incumbent=lambda inc: None)

    def test_solve_stream_iterates_then_exposes_outcome(self, hanoi3):
        planner = GAPlanner(hanoi3, _ga(), seed=3, portfolio=2)
        stream = planner.solve_stream()
        seen = list(stream)
        assert seen
        assert stream.outcome.solved
        assert tuple(seen) == stream.outcome.incumbents

    def test_conflicting_sub_configs_rejected(self, hanoi3):
        with pytest.raises(ValueError, match="at most one"):
            GAPlanner(hanoi3, _ga(), seed=0, islands=2, portfolio=2)


#: Two GA islands that cannot solve Hanoi-4 before the first migration
#: (round 1 of interval 2), so their pools trade rows at least once.
_POOLED_GA = GAConfig(population_size=20, generations=6, max_len=40, init_length=10)


def _pooled_spec(second_crossover):
    return PortfolioSpec(
        strategies=(
            StrategySpec(kind="ga", ga=_POOLED_GA),
            StrategySpec(kind="ga", ga=_POOLED_GA.replace(crossover=second_crossover)),
        ),
        interval=2,
    )


class TestPooledMigration:
    """Shared-memory dispatch under random crossover returns fitness without
    plans; migrated rows must stay evaluated, and a plan-keeping island must
    get the plans its crossover reads."""

    @pytest.mark.parametrize("second_crossover", ["random", "state-aware"])
    def test_pooled_islands_migrate_like_serial_ones(self, second_crossover):
        spec = _pooled_spec(second_crossover)
        pooled = run_portfolio(
            HanoiDomain(4),
            spec,
            make_rng(1),
            evaluator_factory=lambda: ProcessPoolEvaluator(processes=1),
        )
        serial = run_portfolio(HanoiDomain(4), spec, make_rng(1))
        assert pooled.migrations >= 1
        assert pooled.histories == serial.histories
        assert pooled.winner == serial.winner
        assert pooled.plan == serial.plan

