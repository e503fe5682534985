"""Tests for evaluator-factory wiring in the multi-phase and portfolio drivers."""

import pytest

from repro.core import (
    GAConfig,
    MultiPhaseConfig,
    SerialEvaluator,
    make_rng,
    ring_portfolio,
    run_multiphase,
    run_portfolio,
)


class CountingEvaluator(SerialEvaluator):
    """Serial evaluator that records construction and closure."""

    instances = 0
    closed = 0

    def __init__(self):
        super().__init__()
        CountingEvaluator.instances += 1

    def close(self):
        CountingEvaluator.closed += 1


@pytest.fixture(autouse=True)
def _reset_counters():
    CountingEvaluator.instances = 0
    CountingEvaluator.closed = 0


class TestMultiphaseEvaluatorFactory:
    def test_one_evaluator_per_phase_and_all_closed(self, hanoi3):
        phase = GAConfig(
            population_size=10, generations=3, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        mp = MultiPhaseConfig(max_phases=3, phase=phase)
        result = run_multiphase(
            hanoi3, mp, make_rng(0), evaluator_factory=CountingEvaluator
        )
        assert CountingEvaluator.instances == result.n_phases
        assert CountingEvaluator.closed == result.n_phases

    def test_evaluators_closed_even_on_error(self, hanoi3):
        class Exploding(CountingEvaluator):
            def evaluate_buffer(self, buffer, context):
                raise RuntimeError("boom")

        phase = GAConfig(
            population_size=10, generations=2, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        mp = MultiPhaseConfig(max_phases=2, phase=phase)
        with pytest.raises(RuntimeError, match="boom"):
            run_multiphase(hanoi3, mp, make_rng(1), evaluator_factory=Exploding)
        assert CountingEvaluator.closed == CountingEvaluator.instances


class TestIslandEvaluatorFactory:
    def test_one_evaluator_per_island(self, hanoi3):
        ring = ring_portfolio(
            GAConfig(
                population_size=8, generations=4, max_len=35, init_length=7,
                stop_on_goal=False,
            ),
            3, interval=2, migration_size=1,
        )
        run_portfolio(hanoi3, ring, make_rng(2), evaluator_factory=CountingEvaluator)
        assert CountingEvaluator.instances == 3
        assert CountingEvaluator.closed == 3

    def test_evaluators_closed_on_early_stop(self, hanoi3):
        # stop_on_goal lets the run exit before the generation budget; the
        # per-island evaluators must still be released.
        ring = ring_portfolio(
            GAConfig(
                population_size=40, generations=60, max_len=35, init_length=7,
                stop_on_goal=True,
            ),
            2, interval=5, migration_size=1,
        )
        run_portfolio(hanoi3, ring, make_rng(3), evaluator_factory=CountingEvaluator)
        assert CountingEvaluator.instances == 2
        assert CountingEvaluator.closed == 2

    def test_evaluators_closed_even_on_error(self, hanoi3):
        class Exploding(CountingEvaluator):
            def evaluate_buffer(self, buffer, context):
                raise RuntimeError("boom")

        ring = ring_portfolio(
            GAConfig(
                population_size=8, generations=2, max_len=35, init_length=7,
                stop_on_goal=False,
            ),
            2, interval=2, migration_size=1,
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_portfolio(hanoi3, ring, make_rng(4), evaluator_factory=Exploding)
        assert CountingEvaluator.closed == CountingEvaluator.instances
