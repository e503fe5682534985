"""Tests for the GAPlanner facade."""

import pytest

from repro.core import (
    GAConfig,
    GAPlanner,
    GAResult,
    MultiPhaseConfig,
    MultiPhaseResult,
    PlanningOutcome,
    PortfolioResult,
    SerialEvaluator,
    ring_portfolio,
)
from repro.domains import optimal_hanoi_moves


class TestGAPlanner:
    def test_single_phase_outcome(self, hanoi3):
        cfg = GAConfig(population_size=50, generations=80, max_len=35, init_length=7)
        outcome = GAPlanner(hanoi3, cfg, seed=0).solve()
        assert outcome.solved
        assert outcome.plan_length == len(outcome.plan)
        assert outcome.plan_cost == pytest.approx(outcome.plan_length)  # unit costs
        assert outcome.goal_fitness == pytest.approx(1.0)
        final = hanoi3.execute(outcome.plan)
        assert hanoi3.is_goal(final)

    def test_multiphase_by_int(self, hanoi3):
        cfg = GAConfig(population_size=40, generations=30, max_len=35, init_length=7)
        outcome = GAPlanner(hanoi3, cfg, multiphase=5, seed=1).solve()
        assert outcome.solved
        assert outcome.generations % 30 == 0  # full phases

    def test_multiphase_by_config(self, hanoi3):
        mp = MultiPhaseConfig(
            max_phases=2,
            phase=GAConfig(
                population_size=20, generations=5, max_len=35, init_length=7,
                stop_on_goal=False,
            ),
        )
        cfg = GAConfig(population_size=20, generations=5, max_len=35, init_length=7)
        outcome = GAPlanner(hanoi3, cfg, multiphase=mp, seed=2).solve()
        assert outcome.generations <= 10

    def test_seeding_produces_instant_solution(self, hanoi3):
        cfg = GAConfig(population_size=20, generations=30, max_len=35, init_length=7)
        planner = GAPlanner(hanoi3, cfg, seed=3)
        seeds = planner.seed_individuals([optimal_hanoi_moves(3)])
        outcome = planner.solve(seeds=seeds)
        assert outcome.solved
        assert outcome.detail.solved_at_generation == 0

    def test_seeds_rejected_in_multiphase(self, hanoi3):
        cfg = GAConfig(population_size=20, generations=5, max_len=35, init_length=7)
        planner = GAPlanner(hanoi3, cfg, multiphase=2, seed=4)
        seeds = planner.seed_individuals([optimal_hanoi_moves(3)], jitter=False)
        with pytest.raises(ValueError, match="single-phase"):
            planner.solve(seeds=seeds)

    def test_custom_start_state(self, hanoi3):
        cfg = GAConfig(population_size=20, generations=10, max_len=35, init_length=7)
        outcome = GAPlanner(hanoi3, cfg, seed=5).solve(start_state=((1,), (3, 2), ()))
        assert outcome.solved


def _assert_uniform_outcome(outcome: PlanningOutcome, mode: str, domain) -> None:
    """Every mode fills the same fields with the same semantics."""
    assert outcome.mode == mode
    assert isinstance(outcome.plan, tuple)
    assert outcome.plan_length == len(outcome.plan)
    assert outcome.plan_cost == pytest.approx(domain.plan_cost(outcome.plan))
    assert 0.0 <= outcome.goal_fitness <= 1.0
    assert outcome.solved == (outcome.goal_fitness == pytest.approx(1.0))
    assert outcome.generations > 0
    assert outcome.elapsed_seconds >= 0.0
    if outcome.solved:
        assert domain.is_goal(domain.execute(outcome.plan))


class TestModeDispatch:
    """The unified GAPlanner surface: one outcome shape for all three modes."""

    def _cfg(self, **overrides):
        base = dict(
            population_size=40, generations=40, max_len=35, init_length=7
        )
        base.update(overrides)
        return GAConfig(**base)

    def test_all_modes_return_uniform_outcome(self, hanoi3):
        single = GAPlanner(hanoi3, self._cfg(), seed=0).solve()
        multi = GAPlanner(hanoi3, self._cfg(generations=20), multiphase=4, seed=0).solve()
        isl = GAPlanner(hanoi3, self._cfg(generations=20), islands=3, seed=0).solve()
        _assert_uniform_outcome(single, "single", hanoi3)
        _assert_uniform_outcome(multi, "multiphase", hanoi3)
        _assert_uniform_outcome(isl, "islands", hanoi3)
        assert isinstance(single.detail, GAResult)
        assert isinstance(multi.detail, MultiPhaseResult)
        assert isinstance(isl.detail, PortfolioResult)
        # Field sets are literally identical across modes.
        assert set(single.__dict__) == set(multi.__dict__) == set(isl.__dict__)

    def test_islands_by_config(self, hanoi3):
        cfg = self._cfg(generations=10, stop_on_goal=False)
        planner = GAPlanner(hanoi3, cfg, islands=2, seed=1)
        assert planner.islands == ring_portfolio(cfg, 2)
        outcome = planner.solve()
        assert outcome.mode == "islands"
        # generations is total search effort: per-island generations summed.
        assert outcome.detail.ticks_run == [10, 10]
        assert outcome.generations == 20

    def test_explicit_mode_builds_default_configs(self, hanoi3):
        multi = GAPlanner(hanoi3, self._cfg(generations=5), mode="multiphase", seed=2)
        assert multi.mode == "multiphase"
        assert multi.multiphase is not None
        assert multi.multiphase.phase.stop_on_goal is False
        isl = GAPlanner(hanoi3, self._cfg(), mode="islands", seed=2)
        assert isl.mode == "islands"
        assert isl.islands is not None
        assert isl.islands == ring_portfolio(self._cfg(), 4)

    def test_explicit_single_mode_discards_subconfigs(self, hanoi3):
        planner = GAPlanner(hanoi3, self._cfg(), multiphase=3, mode="single", seed=3)
        assert planner.mode == "single"
        assert planner.multiphase is None

    def test_conflicting_subconfigs_rejected(self, hanoi3):
        with pytest.raises(ValueError, match="at most one"):
            GAPlanner(hanoi3, self._cfg(), multiphase=2, islands=2)

    def test_unknown_mode_rejected(self, hanoi3):
        with pytest.raises(ValueError, match="mode must be one of"):
            GAPlanner(hanoi3, self._cfg(), mode="parallel")

    def test_seeds_rejected_in_islands(self, hanoi3):
        planner = GAPlanner(hanoi3, self._cfg(), islands=2, seed=4)
        seeds = planner.seed_individuals([optimal_hanoi_moves(3)], jitter=False)
        with pytest.raises(ValueError, match="single-phase"):
            planner.solve(seeds=seeds)


class TestEvaluatorSpec:
    def _cfg(self):
        return GAConfig(
            population_size=10, generations=3, max_len=35, init_length=7,
            stop_on_goal=False,
        )

    def test_serial_aliases(self, hanoi3):
        for spec in (None, "serial"):
            planner = GAPlanner(hanoi3, self._cfg(), seed=0, evaluator=spec)
            assert planner._evaluator_factory is None

    def test_factory_evaluators_are_closed(self, hanoi3):
        created = []

        def factory():
            evaluator = SerialEvaluator()
            evaluator.closed = False
            original_close = evaluator.close
            def close():
                evaluator.closed = True
                original_close()
            evaluator.close = close
            created.append(evaluator)
            return evaluator

        for kwargs in (dict(), dict(multiphase=2), dict(islands=2)):
            created.clear()
            GAPlanner(hanoi3, self._cfg(), seed=5, evaluator=factory, **kwargs).solve()
            assert created, kwargs
            assert all(e.closed for e in created), kwargs

    def test_instance_rejected(self, hanoi3):
        with pytest.raises(TypeError, match="factory"):
            GAPlanner(hanoi3, self._cfg(), evaluator=SerialEvaluator())

    def test_unknown_spec_rejected(self, hanoi3):
        with pytest.raises(ValueError, match="evaluator spec"):
            GAPlanner(hanoi3, self._cfg(), evaluator="threads")
