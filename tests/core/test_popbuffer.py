"""PopulationBuffer unit behaviour: packing, stats, hints, subset ops.

Trajectory-level equivalence lives in ``test_batched_equivalence.py``; this
file pins the buffer's own contracts — the genome intake, lossless
round-trips through the reference records,
``GenerationStats.from_buffer`` equality, ``best_index`` tie-breaking, and
the property that a bred generation carries exactly the same
incremental-decode lineage (``dirty_from`` + prefix plan) per offspring as
the per-individual reference step (``tests/oracle.py``), and none under
the random crossover, whose buffers keep no plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, GARun, PopulationBuffer, make_rng
from repro.core.popbuffer import breed, select_parent_indices
from repro.core.stats import GenerationStats
from repro.domains import HanoiDomain
from tests.oracle import pack, reference_generation, stats_from_population, unpack


def evaluated_run(config, seed):
    run = GARun(HanoiDomain(3), config, make_rng(seed))
    run._evaluate_and_record()
    return run


BASE = GAConfig(population_size=12, generations=3, max_len=24, init_length=(4, 12))


class TestRoundTrip:
    def test_unevaluated_round_trip(self):
        rng = make_rng(3)
        genomes = [rng.random(int(rng.integers(1, 9))) for _ in range(7)]
        buf = PopulationBuffer.from_genomes(genomes)
        assert buf.n == len(genomes)
        for i, genes in enumerate(genomes):
            np.testing.assert_array_equal(buf.view(i), genes)
        assert not buf.evaluated.any()

    def test_evaluated_round_trip_preserves_fitness_and_plans(self):
        # A plan-keeping config: under the random crossover no row has a plan.
        run = evaluated_run(BASE.replace(crossover="state-aware"), 17)
        population = unpack(run.buffer)
        buf = pack(population)
        np.testing.assert_array_equal(buf.evaluated, np.ones(len(population), bool))
        for i, ind in enumerate(unpack(buf)):
            src = population[i]
            np.testing.assert_array_equal(ind.genes, src.genes)
            assert ind.fitness == src.fitness
            assert ind.decoded.operations == src.decoded.operations

    def test_views_are_zero_copy_and_read_only(self):
        run = evaluated_run(BASE, 17)
        buf = run.buffer
        view = buf.view(0)
        assert view.base is buf.genes or view.base is buf.genes.base
        with pytest.raises(ValueError):
            view[0] = 0.5

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            PopulationBuffer.from_genomes([])


class TestStatsAndBest:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_from_buffer_matches_from_population(self, seed):
        run = evaluated_run(BASE, seed)
        population = unpack(run.buffer)
        assert GenerationStats.from_buffer(0, run.buffer) == stats_from_population(0, population)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_best_index_matches_object_max(self, seed):
        run = evaluated_run(BASE, seed)
        population = unpack(run.buffer)
        expected = max(range(len(population)), key=lambda i: population[i].sort_key())
        assert run.buffer.best_index() == expected

    def test_best_index_requires_evaluation(self):
        rng = make_rng(0)
        buf = PopulationBuffer.from_genomes([rng.random(4) for _ in range(3)])
        with pytest.raises(ValueError, match="evaluated"):
            buf.best_index()

    def test_select_requires_evaluation(self):
        rng = make_rng(0)
        buf = PopulationBuffer.from_genomes([rng.random(4) for _ in range(3)])
        with pytest.raises(ValueError, match="evaluated"):
            select_parent_indices(buf, BASE, rng)


class TestSubsetOps:
    def test_take_preserves_rows_in_order(self):
        run = evaluated_run(BASE, 23)
        buf = run.buffer
        rows = np.array([4, 0, 7], dtype=np.int64)
        sub = buf.take(rows)
        assert sub.n == 3
        for j, r in enumerate(rows):
            np.testing.assert_array_equal(sub.view(j), buf.view(int(r)))
            assert sub.total[j] == buf.total[r]
            assert sub.plans[j] is buf.plans[int(r)]

    def test_concatenate_stacks_parts(self):
        run = evaluated_run(BASE, 23)
        buf = run.buffer
        a = buf.take(np.arange(4))
        b = buf.take(np.arange(4, buf.n))
        whole = PopulationBuffer.concatenate([a, b])
        assert whole.n == buf.n
        np.testing.assert_array_equal(whole.genes, buf.genes)
        np.testing.assert_array_equal(whole.total, buf.total)
        np.testing.assert_array_equal(whole.evaluated, buf.evaluated)


class TestDirtyFromLineage:
    """Arena-wide breeding must carry per-individual decode hints exactly."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["random", "state-aware", "mixed"]),
        st.floats(min_value=0.0, max_value=0.4),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_generation_hints_match_object_path(
        self, seed, crossover, mutation_rate, elitism
    ):
        config = BASE.replace(
            crossover=crossover, mutation_rate=mutation_rate, elitism=elitism
        )
        on = evaluated_run(config, seed)
        off = evaluated_run(config, seed)
        on._next_generation()
        offspring = reference_generation(unpack(off.buffer), config, off.rng)
        buf = on.buffer
        assert buf.n == len(offspring)
        for i, ind in enumerate(offspring):
            np.testing.assert_array_equal(buf.view(i), ind.genes)
            if crossover == "random":
                # The code decoder builds no plans under the random
                # crossover, so no offspring has a parent plan to resume.
                assert bool(buf.evaluated[i]) == (ind.fitness is not None)
                assert int(buf.dirty_from[i]) == -1
                assert buf.prefix_plans[i] is None
                continue
            if ind.is_evaluated:
                # Unmutated clones keep their parent's evaluation either way.
                assert bool(buf.evaluated[i])
                assert buf.fitness_result(i) == ind.fitness
                continue
            assert not bool(buf.evaluated[i])
            if ind.prefix_plan is not None and ind.dirty_from is not None:
                assert int(buf.dirty_from[i]) == ind.dirty_from
                assert buf.prefix_plans[i] is not None
                assert (
                    buf.prefix_plans[i].operations == ind.prefix_plan.operations
                )
            else:
                assert int(buf.dirty_from[i]) == -1
                assert buf.prefix_plans[i] is None

    def test_breed_validates_mutation_rate(self):
        run = evaluated_run(BASE, 1)
        bad = BASE.replace(mutation_rate=0.1)
        object.__setattr__(bad, "mutation_rate", 1.5)
        idx = select_parent_indices(run.buffer, BASE, make_rng(0))
        with pytest.raises(ValueError, match="mutation rate"):
            breed(run.buffer, idx, bad, make_rng(0))
