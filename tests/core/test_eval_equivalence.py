"""Engine-vs-oracle equivalence: whole GA trajectories must be bit-identical.

The incremental decode engine's contract (DESIGN.md §9) is that it is
*unobservable* in results: a run on the engine and a run on the reference
evaluator (the paper's plain decode rule, ``tests/oracle.py``) give the same
per-generation statistics, best genome and fitness, to the last bit, for the
same seed.  Hypothesis drives random configurations across all three
crossover operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, MultiPhaseConfig, make_rng, run_ga, run_multiphase
from repro.core.decode_engine import DecodeEngine
from repro.core.parallel import ProcessPoolEvaluator, SerialEvaluator
from repro.domains import BlocksWorldDomain, HanoiDomain, SlidingTileDomain
from tests.oracle import ReferenceEvaluator


def run_pair(domain, config, seed):
    """Run the same GA on the decode engine and on the oracle."""
    on = run_ga(domain, config, make_rng(seed), evaluator=SerialEvaluator(engine=DecodeEngine()))
    off = run_ga(domain, config, make_rng(seed), evaluator=ReferenceEvaluator())
    return on, off


def assert_results_identical(on, off):
    assert on.history.generations == off.history.generations  # exact dataclass ==
    assert on.generations_run == off.generations_run
    assert on.solved_at_generation == off.solved_at_generation
    np.testing.assert_array_equal(on.best.genes, off.best.genes)
    assert on.best.fitness.total == off.best.fitness.total
    assert on.best.fitness.goal == off.best.fitness.goal
    assert on.best.decoded.operations == off.best.decoded.operations
    assert on.best.decoded.cost == off.best.decoded.cost


configs = st.fixed_dictionaries(
    {
        "population_size": st.integers(min_value=6, max_value=14),
        "generations": st.integers(min_value=2, max_value=5),
        "crossover": st.sampled_from(["random", "state-aware", "mixed"]),
        "crossover_rate": st.floats(min_value=0.0, max_value=1.0),
        "mutation_rate": st.floats(min_value=0.0, max_value=0.3),
        "elitism": st.integers(min_value=0, max_value=2),
        "truncate_at_goal": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


class TestEngineTrajectoryEquivalence:
    @given(configs)
    @settings(max_examples=12, deadline=None)
    def test_hanoi_random_configs(self, params):
        seed = params.pop("seed")
        config = GAConfig(max_len=32, init_length=(4, 16), **params)
        on, off = run_pair(HanoiDomain(3), config, seed)
        assert_results_identical(on, off)

    @given(configs)
    @settings(max_examples=8, deadline=None)
    def test_tile_random_configs(self, params):
        # The sliding tile overrides decode_key AND has abundant state-aware
        # matches, so this exercises the match_keys path hard.
        seed = params.pop("seed")
        config = GAConfig(max_len=40, init_length=(6, 20), **params)
        on, off = run_pair(SlidingTileDomain(3), config, seed)
        assert_results_identical(on, off)

    @pytest.mark.parametrize("crossover", ["random", "state-aware", "mixed"])
    def test_longer_run_per_crossover(self, crossover):
        config = GAConfig(
            population_size=20,
            generations=15,
            max_len=64,
            init_length=16,
            crossover=crossover,
        )
        on, off = run_pair(HanoiDomain(4), config, 424242)
        assert_results_identical(on, off)


class TestMultiphaseEquivalence:
    def test_multiphase_engine_on_off(self):
        domain = HanoiDomain(4)
        base = GAConfig(
            population_size=16, generations=8, max_len=40, init_length=12
        )
        engine = DecodeEngine()  # one engine spans the phases
        on = run_multiphase(
            domain,
            MultiPhaseConfig(phase=base, max_phases=3),
            make_rng(99),
            evaluator_factory=lambda: SerialEvaluator(engine=engine),
        )
        off = run_multiphase(
            domain,
            MultiPhaseConfig(phase=base, max_phases=3),
            make_rng(99),
            evaluator_factory=ReferenceEvaluator,
        )
        assert on.plan == off.plan
        assert on.goal_fitness == off.goal_fitness
        assert on.solved == off.solved
        assert on.total_generations == off.total_generations
        for a, b in zip(on.phases, off.phases):
            assert a.result.history.generations == b.result.history.generations


class TestProcessPoolEquivalence:
    def test_pool_matches_naive_serial(self):
        domain = HanoiDomain(3)
        config = GAConfig(
            population_size=16, generations=6, max_len=32, init_length=10
        )
        with ProcessPoolEvaluator(processes=2) as pool:
            on = run_ga(domain, config, make_rng(7), evaluator=pool)
        off = run_ga(domain, config, make_rng(7), evaluator=ReferenceEvaluator())
        assert_results_identical(on, off)


class TestKernelLessDomain:
    """Blocks World has no kernel, so every evaluator runs the engine."""

    config = GAConfig(
        population_size=12,
        generations=6,
        max_len=24,
        init_length=8,
        crossover="mixed",
    )

    @staticmethod
    def domain():
        return BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])

    @pytest.mark.parametrize("truncate_at_goal", [True, False])
    def test_serial_engine_matches_oracle(self, truncate_at_goal):
        config = self.config.replace(truncate_at_goal=truncate_at_goal)
        on = run_ga(self.domain(), config, make_rng(3))
        off = run_ga(self.domain(), config, make_rng(3), evaluator=ReferenceEvaluator())
        assert_results_identical(on, off)

    @pytest.mark.parametrize("truncate_at_goal", [True, False])
    def test_pool_matches_oracle(self, truncate_at_goal):
        # The random crossover keeps no plans, so the pool ships none back
        # and each generation's best is decoded lazily in the parent.
        for crossover in ("mixed", "random"):
            config = self.config.replace(truncate_at_goal=truncate_at_goal, crossover=crossover)
            with ProcessPoolEvaluator(processes=2) as pool:
                on = run_ga(self.domain(), config, make_rng(3), evaluator=pool)
            off = run_ga(self.domain(), config, make_rng(3), evaluator=ReferenceEvaluator())
            assert_results_identical(on, off)
