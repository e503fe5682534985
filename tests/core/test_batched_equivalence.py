"""Replay equivalence: whole GA trajectories must be bit-identical to the oracle.

:class:`~repro.core.ga.GARun` breeds on the structure-of-arrays
:class:`~repro.core.popbuffer.PopulationBuffer`; ``tests/oracle.py``'s
:func:`reference_ga` runs the same GA one genome record at a time with
the paper's object operators.  ``breed`` replays the operators' RNG draws
exactly (DESIGN.md §11), so same seed → same per-generation statistics,
same best genome, fitness and decoded plan, to the last bit — on the
serial evaluator, the process pool or the reference evaluator.  Hypothesis
drives random configurations across all three crossovers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, make_rng, run_ga
from repro.core.parallel import ProcessPoolEvaluator, SerialEvaluator
from repro.domains import BlocksWorldDomain, HanoiDomain, SlidingTileDomain
from tests.oracle import ReferenceEvaluator, reference_ga


def run_pair(domain, config, seed, on_evaluator=None, off_evaluator=None):
    """Run the same GA on the buffer and on the oracle; return both results."""
    on = run_ga(domain, config, make_rng(seed), evaluator=on_evaluator)
    off = reference_ga(domain, config, make_rng(seed), evaluator=off_evaluator)
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


class TestBatchedTrajectoryEquivalence:
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
        # The sliding tile has abundant state-aware cut matches, so this
        # exercises the plan-carrying (keep_plans) buffer path hard.
        seed = params.pop("seed")
        config = GAConfig(max_len=40, init_length=(6, 20), **params)
        on, off = run_pair(SlidingTileDomain(3), config, seed)
        assert_results_identical(on, off)

    @given(configs)
    @settings(max_examples=8, deadline=None)
    def test_blocks_random_configs(self, params):
        # Blocks World has no kernel: the serial evaluator runs the engine.
        seed = params.pop("seed")
        config = GAConfig(max_len=24, init_length=(4, 12), **params)
        domain = BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])
        on, off = run_pair(domain, config, seed)
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

    def test_naive_decode_also_identical(self):
        # The buffer step must not depend on the incremental decode engine.
        config = GAConfig(
            population_size=12, generations=6, max_len=32, init_length=10,
        )
        on, off = run_pair(
            HanoiDomain(3), config, 31337, on_evaluator=ReferenceEvaluator()
        )
        assert_results_identical(on, off)


class TestProcessPoolBatchedEquivalence:
    @pytest.mark.parametrize("crossover", ["random", "mixed"])
    def test_pool_matches_object_serial(self, crossover):
        domain = HanoiDomain(3)
        config = GAConfig(
            population_size=16,
            generations=6,
            max_len=32,
            init_length=10,
            crossover=crossover,
        )
        with ProcessPoolEvaluator(processes=2) as pool:
            on, off = run_pair(
                domain, config, 7, on_evaluator=pool, off_evaluator=SerialEvaluator()
            )
        assert_results_identical(on, off)

    @pytest.mark.parametrize("crossover", ["state-aware", "mixed"])
    def test_pool_list_api_matches_oracle(self, crossover):
        # The oracle loop drives the pool through ``evaluate_records``,
        # which packs the pending records into a plan-keeping buffer.
        domain = HanoiDomain(3)
        config = GAConfig(
            population_size=16,
            generations=5,
            max_len=32,
            init_length=10,
            crossover=crossover,
        )
        with ProcessPoolEvaluator(processes=2) as pool:
            on = reference_ga(domain, config, make_rng(11), evaluator=pool)
        off = reference_ga(domain, config, make_rng(11))
        assert_results_identical(on, off)
