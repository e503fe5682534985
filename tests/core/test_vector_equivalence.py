"""Vector-vs-oracle decode equivalence: trajectories must be bit-identical.

``GAConfig.vector_decode`` runs evaluation on the whole-population numpy
decoder (:mod:`repro.core.vector_decode`, gathering transitions from the
domain kernel's int tables).  The kernel ABI's exactness contract
(DESIGN.md §12) makes it *unobservable* in results: against the reference
evaluator (``tests/oracle.py``), same seed → same per-generation
statistics, same best genome, fitness, decoded plan and match keys, to the
last bit — serial or process pool, single-phase, multi-phase or islands.  Hypothesis drives random configurations across all three
crossovers and all three kernel-backed domains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAConfig,
    MultiPhaseConfig,
    make_rng,
    ring_portfolio,
    run_ga,
    run_multiphase,
    run_portfolio,
)
from repro.core.parallel import ProcessPoolEvaluator
from repro.domains import HanoiDomain, PocketCubeDomain, SlidingTileDomain
from repro.domains.pocket_cube import scrambled_state
from tests.oracle import ReferenceEvaluator


def run_pair(domain, config, seed, on_evaluator=None):
    """Run the same GA with vector decode and on the oracle."""
    on = run_ga(
        domain, config.replace(vector_decode=True), make_rng(seed), evaluator=on_evaluator
    )
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
    assert on.best.decoded.state_keys == off.best.decoded.state_keys
    assert on.best.decoded.match_keys == off.best.decoded.match_keys
    assert on.best.decoded.cost == off.best.decoded.cost
    assert on.best.decoded.goal_reached == off.best.decoded.goal_reached


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


class TestVectorTrajectoryEquivalence:
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
        # The tile kernel interns lazily and uses a non-trivial decode_key
        # (blank position), exercising dirty-prefix resume and match keys.
        seed = params.pop("seed")
        config = GAConfig(max_len=40, init_length=(6, 20), **params)
        on, off = run_pair(SlidingTileDomain(3), config, seed)
        assert_results_identical(on, off)

    @given(configs)
    @settings(max_examples=6, deadline=None)
    def test_cube_random_configs(self, params):
        seed = params.pop("seed")
        config = GAConfig(max_len=24, init_length=(4, 12), **params)
        domain = PocketCubeDomain(scrambled_state(6, make_rng(seed % 97)))
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

    def test_auto_probe_equals_explicit_on(self):
        # vector_decode=None (the default) must auto-enable where a kernel
        # exists and produce the same trajectory as an explicit True.
        config = GAConfig(population_size=12, generations=5, max_len=32, init_length=10)
        auto = run_ga(HanoiDomain(3), config, make_rng(8))
        explicit = run_ga(
            HanoiDomain(3), config.replace(vector_decode=True), make_rng(8)
        )
        assert_results_identical(auto, explicit)


class TestVectorProcessPoolEquivalence:
    @pytest.mark.parametrize("crossover", ["random", "mixed"])
    def test_pool_vector_matches_object_serial(self, crossover):
        domain = HanoiDomain(3)
        config = GAConfig(
            population_size=16,
            generations=6,
            max_len=32,
            init_length=10,
            crossover=crossover,
        )
        with ProcessPoolEvaluator(processes=2) as pool:
            on, off = run_pair(domain, config, 7, on_evaluator=pool)
        assert_results_identical(on, off)


class TestVectorMultiphaseEquivalence:
    def test_multiphase_vector_on_off(self):
        domain = HanoiDomain(4)
        base = GAConfig(population_size=16, generations=8, max_len=40, init_length=12)
        on = run_multiphase(
            domain,
            MultiPhaseConfig(phase=base.replace(vector_decode=True), max_phases=3),
            make_rng(99),
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


class TestVectorIslandsEquivalence:
    def test_islands_vector_on_off(self):
        domain = SlidingTileDomain(3)
        base = GAConfig(
            population_size=10, generations=12, max_len=40, init_length=10,
            crossover="state-aware",
        )
        def ring(vector):
            return ring_portfolio(
                base.replace(vector_decode=vector), 3, interval=4, migration_size=2
            )

        on = run_portfolio(domain, ring(True), make_rng(5), serial=True)
        off = run_portfolio(
            domain, ring(None), make_rng(5), serial=True,
            evaluator_factory=ReferenceEvaluator,
        )
        assert on.best.sort_key() == off.best.sort_key()
        assert on.plan == off.plan
        assert on.first_solution_tick == off.first_solution_tick
        assert on.migrations == off.migrations
        for ha, hb in zip(on.histories, off.histories):
            assert ha.generations == hb.generations
