"""Property-based tests (hypothesis) on the GA core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    Individual,
    decode,
    encode_operations,
    gene_to_index,
    make_rng,
)
from repro.core.fitness import cost_fitness
from repro.domains import HanoiDomain, SlidingTileDomain
from tests.oracle import random_crossover, uniform_reset_mutation

genes_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
)


class TestGeneToIndexProperties:
    @given(st.floats(min_value=0.0, max_value=0.9999999), st.integers(1, 50))
    def test_index_in_range(self, gene, k):
        assert 0 <= gene_to_index(gene, k) < k

    @given(st.integers(1, 50))
    def test_bins_cover_all_indices(self, k):
        hit = {gene_to_index((i + 0.5) / k, k) for i in range(k)}
        assert hit == set(range(k))

    @given(
        st.floats(min_value=0.0, max_value=0.999999),
        st.floats(min_value=0.0, max_value=0.999999),
        st.integers(1, 20),
    )
    def test_monotone_in_gene(self, a, b, k):
        lo, hi = sorted((a, b))
        assert gene_to_index(lo, k) <= gene_to_index(hi, k)


class TestDecodeProperties:
    @given(genes_arrays)
    @settings(max_examples=50, deadline=None)
    def test_decoded_plan_is_always_valid(self, genes):
        """Paper's core claim: indirect encoding admits no invalid operation."""
        domain = HanoiDomain(3)
        d = decode(genes, domain, domain.initial_state, truncate_at_goal=False)
        state = domain.initial_state
        for op in d.operations:
            assert op in list(domain.valid_operations(state))
            state = domain.apply(state, op)

    @given(genes_arrays)
    @settings(max_examples=50, deadline=None)
    def test_match_fitness_invariant(self, genes):
        """Used genes == decoded ops; cost == plan length for unit costs."""
        domain = HanoiDomain(3)
        d = decode(genes, domain, domain.initial_state, truncate_at_goal=False)
        assert d.used_genes == len(d.operations)
        assert d.cost == float(len(d.operations))
        assert len(d.state_keys) == len(d.operations) + 1

    @given(genes_arrays)
    @settings(max_examples=30, deadline=None)
    def test_truncation_never_lengthens(self, genes):
        domain = HanoiDomain(3)
        full = decode(genes, domain, domain.initial_state, truncate_at_goal=False)
        trunc = decode(genes, domain, domain.initial_state, truncate_at_goal=True)
        assert len(trunc.operations) <= len(full.operations)
        if trunc.goal_reached:
            assert domain.is_goal(trunc.final_state)

    @given(genes_arrays)
    @settings(max_examples=30, deadline=None)
    def test_tile_goal_fitness_bounds(self, genes):
        domain = SlidingTileDomain(3)
        d = decode(genes, domain, domain.initial_state)
        f = domain.goal_fitness(d.final_state)
        assert 0.0 <= f <= 1.0


class TestEncodeDecodeRoundTrip:
    @given(st.integers(0, 200), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_walk_round_trips(self, seed, n_disks):
        """Any valid op sequence encodes to genes that decode back to it."""
        domain = HanoiDomain(n_disks)
        rng = make_rng(seed)
        state = domain.initial_state
        ops = []
        for _ in range(15):
            valid = list(domain.valid_operations(state))
            op = valid[int(rng.integers(0, len(valid)))]
            ops.append(op)
            state = domain.apply(state, op)
        genes = encode_operations(domain, domain.initial_state, ops)
        d = decode(genes, domain, domain.initial_state, truncate_at_goal=False)
        assert list(d.operations) == ops


class TestOperatorProperties:
    @given(genes_arrays, genes_arrays, st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_crossover_children_well_formed(self, g1, g2, seed):
        rng = make_rng(seed)
        c1, c2 = random_crossover(Individual(genes=g1), Individual(genes=g2), rng, max_len=50)
        for c in (c1, c2):
            assert 1 <= len(c) <= 50
            assert (c.genes >= 0).all() and (c.genes < 1).all()

    @given(genes_arrays, st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_mutation_preserves_shape_and_range(self, genes, rate, seed):
        rng = make_rng(seed)
        out = uniform_reset_mutation(Individual(genes=genes), rate, rng)
        assert len(out) == len(genes)
        assert (out.genes >= 0).all() and (out.genes < 1).all()


class TestFitnessProperties:
    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_cost_fitness_in_unit_interval(self, cost):
        f = cost_fitness(cost)
        assert 0.0 < f <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_cost_fitness_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert cost_fitness(lo) >= cost_fitness(hi)
