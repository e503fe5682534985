"""Vector-vs-oracle decode equivalence: trajectories must be bit-identical.

On a domain with a kernel the default evaluators run the whole-population
numpy decoder (:mod:`repro.core.vector_decode`, gathering transitions from
the domain kernel's int tables).  The kernel ABI's exactness contract
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
from repro.core import vector_decode
from repro.core.encoding import decode
from repro.core.fitness import FitnessFunction
from repro.core.parallel import EvaluationContext, ProcessPoolEvaluator, SerialEvaluator
from repro.core.popbuffer import PopulationBuffer
from repro.core.vector_decode import VectorDecoder
from repro.domains import HanoiDomain, PocketCubeDomain, SlidingTileDomain
from repro.domains.pocket_cube import scrambled_state
from tests.oracle import ReferenceEvaluator


def run_pair(domain, config, seed, on_evaluator=None):
    """Run the same GA with vector decode and on the oracle."""
    on = run_ga(domain, config, make_rng(seed), evaluator=on_evaluator)
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
        # The default serial evaluator must pick the vector decode where a
        # kernel exists and produce the oracle's trajectory.
        config = GAConfig(population_size=12, generations=5, max_len=32, init_length=10)
        evaluator = SerialEvaluator()
        on, off = run_pair(HanoiDomain(3), config, 8, on_evaluator=evaluator)
        assert evaluator.vector_counters()["vector_rows"] > 0
        assert evaluator.engine_counters() is None
        assert_results_identical(on, off)


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
            MultiPhaseConfig(phase=base, max_phases=3),
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
        ring = ring_portfolio(base, 3, interval=4, migration_size=2)
        on = run_portfolio(domain, ring, make_rng(5))
        off = run_portfolio(
            domain, ring, make_rng(5), evaluator_factory=ReferenceEvaluator
        )
        assert on.best.sort_key() == off.best.sort_key()
        assert on.plan == off.plan
        assert on.first_solution_tick == off.first_solution_tick
        assert on.migrations == off.migrations
        for ha, hb in zip(on.histories, off.histories):
            assert ha.generations == hb.generations


def _near_goal_tile(n):
    """An n×n tile one move from its goal, so random genomes reach it."""
    domain = SlidingTileDomain(n)
    goal = domain.goal_state
    return SlidingTileDomain(n, initial=domain.apply(goal, domain.valid_operations(goal)[0]))


#: Every kernel domain the walks must agree on.
WALK_DOMAINS = {
    **{f"hanoi-{n}": (lambda n=n: HanoiDomain(n)) for n in range(1, 9)},
    **{f"tile-{n}": (lambda n=n: SlidingTileDomain(n)) for n in (2, 3, 4)},
    **{f"tile-{n}-near-goal": (lambda n=n: _near_goal_tile(n)) for n in (3, 4)},
    "cube": lambda: PocketCubeDomain(scrambled_state(6, make_rng(5))),
    "cube-near-goal": lambda: PocketCubeDomain(scrambled_state(1, make_rng(5))),
}


def _walk_batch(domain, n_rows, truncate, seed):
    """*n_rows* genomes with resume hints, as breeding makes them.

    Parents are decoded with the reference decoder; each child keeps a
    parent's first ``dirty`` genes and carries ``(parent plan, dirty)``.
    The dirty points cover gene 0 (no hint), the parent's ``used_genes``
    (a row boundary), the child's whole length (nothing left to walk) and
    points past the parent's stop (a parent that stopped inside the
    prefix); a few rows carry no hint at all.
    """
    rng = make_rng(seed)
    start = domain.initial_state
    genomes, hints = [], []
    for i in range(n_rows):
        parent = rng.random(int(rng.integers(1, 40)))
        plan = decode(parent, domain, start, truncate_at_goal=truncate)
        kind = i % 5
        if kind == 0:
            genomes.append(rng.random(int(rng.integers(0, 40))))
            hints.append(None)
            continue
        if kind == 1:
            dirty = plan.used_genes
        elif kind == 2:
            dirty = parent.size
        elif kind == 3:
            dirty = int(rng.integers(0, parent.size + 1))
        else:
            dirty = min(parent.size, plan.used_genes + int(rng.integers(1, 4)))
        tail = rng.random(int(rng.integers(0, 20))) if kind != 2 else np.empty(0)
        genomes.append(np.concatenate([parent[:dirty], tail]))
        hints.append((plan, dirty))
    lengths = np.array([g.size for g in genomes], dtype=np.int64)
    offsets = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    arena = np.concatenate(genomes) if lengths.sum() else np.empty(0)
    return genomes, arena, offsets, lengths, hints


class TestScalarAndVectorWalks:
    """Both walks decode every row exactly as the reference decoder does.

    A batch of ``SCALAR_ROWS - 1`` rows walks row by row and one of
    ``SCALAR_ROWS`` rows walks in numpy; each is also forced through the
    other walk, so every row is decoded both ways on both sides of the
    constant and held to ``tests/oracle.py``'s decode and fitness.
    """

    @pytest.mark.parametrize("truncate", [True, False], ids=["truncate", "full"])
    @pytest.mark.parametrize("name", sorted(WALK_DOMAINS))
    def test_walks_match_the_oracle(self, name, truncate, monkeypatch):
        domain = WALK_DOMAINS[name]()
        context = EvaluationContext(
            domain, domain.initial_state, FitnessFunction(domain, 0.7, 0.3), truncate
        )
        for n_rows in (vector_decode.SCALAR_ROWS - 1, vector_decode.SCALAR_ROWS):
            genomes, arena, offsets, lengths, hints = _walk_batch(domain, n_rows, truncate, n_rows)
            oracle = ReferenceEvaluator()
            buffer = PopulationBuffer(arena, offsets, lengths)
            oracle.evaluate_buffer(buffer, context)
            for threshold in (vector_decode.SCALAR_ROWS, 0, 10**9):
                monkeypatch.setattr(vector_decode, "SCALAR_ROWS", threshold)
                for keep_plans in (True, False):
                    decoder = VectorDecoder(domain.kernel())
                    decoder.bind(context)
                    total, goal, cost, reached, used, plans = decoder.decode_rows(
                        arena, offsets, lengths, keep_plans, hints
                    )
                    assert total.tolist() == buffer.total.tolist()
                    assert goal.tolist() == buffer.goal.tolist()
                    assert cost.tolist() == buffer.cost.tolist()
                    assert reached.tolist() == buffer.goal_reached.tolist()
                    assert used.tolist() == [p.used_genes for p in buffer.plans]
                    for i, want in enumerate(buffer.plans):
                        got = plans[i]
                        if got is None:
                            assert not keep_plans
                            continue
                        assert got.operations == want.operations
                        assert got.state_keys == want.state_keys
                        assert got.match_keys == want.match_keys
                        assert got.final_state == want.final_state
                        assert got.used_genes == want.used_genes
                        assert got.goal_reached == want.goal_reached
                        assert got.cost == want.cost
                monkeypatch.undo()

    def test_the_batches_straddle_the_constant(self):
        # The suite above is only as good as its batch sizes: one below
        # the constant, one at it.
        assert 1 < vector_decode.SCALAR_ROWS < 190  # a GA cell's pending rows


class TestLazyPlans:
    @pytest.mark.parametrize("name", ["hanoi-5", "tile-3", "cube"])
    def test_decode_genes_equals_the_reference_decode(self, name, rng):
        domain = WALK_DOMAINS[name]()
        context = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))
        for _ in range(20):
            genes = rng.random(int(rng.integers(0, 60)))
            got = context.decode_genes(genes)
            want = decode(genes, domain, domain.initial_state)
            assert (got.operations, got.state_keys, got.match_keys) == (
                want.operations, want.state_keys, want.match_keys
            )
            assert (got.final_state, got.used_genes, got.goal_reached, got.cost) == (
                want.final_state, want.used_genes, want.goal_reached, want.cost
            )
