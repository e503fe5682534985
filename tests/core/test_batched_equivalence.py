"""Batched-vs-object equivalence: whole GA trajectories must be bit-identical.

``GAConfig.batched`` switches the generation step between the
structure-of-arrays :class:`~repro.core.popbuffer.PopulationBuffer` engine
and the historical list-of-Individual path.  The batched engine replays the
object path's RNG draws exactly (DESIGN.md §11), so the switch must be
*unobservable* in results: same seed → same per-generation statistics, same
best genome, fitness and decoded plan, to the last bit — serial, process
pool or the reference evaluator (``tests/oracle.py``), single-phase or
multi-phase.  Hypothesis drives random configurations across all three
crossovers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAConfig,
    IslandConfig,
    MultiPhaseConfig,
    make_rng,
    run_ga,
    run_islands,
    run_multiphase,
)
from repro.core.parallel import ProcessPoolEvaluator, SerialEvaluator
from repro.domains import HanoiDomain, SlidingTileDomain
from tests.oracle import ReferenceEvaluator


def run_pair(domain, config, seed, on_evaluator=None, off_evaluator=None):
    """Run the same GA batched and unbatched; return both results."""
    on = run_ga(
        domain, config.replace(batched=True), make_rng(seed), evaluator=on_evaluator
    )
    off = run_ga(
        domain, config.replace(batched=False), make_rng(seed), evaluator=off_evaluator
    )
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
        # Batching must not depend on the incremental decode engine: the
        # oracle reaches buffers through the base bridge.
        config = GAConfig(
            population_size=12, generations=6, max_len=32, init_length=10,
        )
        on, off = run_pair(
            HanoiDomain(3),
            config,
            31337,
            on_evaluator=ReferenceEvaluator(),
            off_evaluator=ReferenceEvaluator(),
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
        # batched=False drives the pool's list API, which packs the
        # Individuals into a plan-keeping buffer and publishes it through
        # the same shared-memory path.
        domain = HanoiDomain(3)
        config = GAConfig(
            population_size=16,
            generations=5,
            max_len=32,
            init_length=10,
            crossover=crossover,
            batched=False,
        )
        with ProcessPoolEvaluator(processes=2) as pool:
            on = run_ga(domain, config, make_rng(11), evaluator=pool)
        off = run_ga(domain, config, make_rng(11), evaluator=ReferenceEvaluator())
        assert_results_identical(on, off)


class TestMultiphaseBatchedEquivalence:
    def test_multiphase_batched_on_off(self):
        domain = HanoiDomain(4)
        base = GAConfig(population_size=16, generations=8, max_len=40, init_length=12)
        on = run_multiphase(
            domain,
            MultiPhaseConfig(phase=base.replace(batched=True), max_phases=3),
            make_rng(99),
        )
        off = run_multiphase(
            domain,
            MultiPhaseConfig(phase=base.replace(batched=False), max_phases=3),
            make_rng(99),
        )
        assert on.plan == off.plan
        assert on.goal_fitness == off.goal_fitness
        assert on.solved == off.solved
        assert on.total_generations == off.total_generations
        for a, b in zip(on.phases, off.phases):
            assert a.result.history.generations == b.result.history.generations


class TestIslandsBatchedEquivalence:
    def test_islands_batched_on_off(self):
        domain = HanoiDomain(3)
        base = GAConfig(
            population_size=10, generations=12, max_len=32, init_length=10
        )
        def island_config(batched):
            return IslandConfig(
                n_islands=3,
                migration_interval=4,
                migration_size=2,
                island=base.replace(batched=batched),
            )

        on = run_islands(domain, island_config(True), make_rng(5))
        off = run_islands(domain, island_config(False), make_rng(5))
        assert on.best.sort_key() == off.best.sort_key()
        np.testing.assert_array_equal(on.best.genes, off.best.genes)
        assert on.solved_at_generation == off.solved_at_generation
        assert on.migrations == off.migrations
        for ha, hb in zip(on.histories, off.histories):
            assert ha.generations == hb.generations
