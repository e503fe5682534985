"""Tests for the three crossover mechanisms."""

import numpy as np
import pytest

from repro.core import (
    EvaluationContext,
    FitnessFunction,
    SerialEvaluator,
    make_rng,
)
from repro.domains import HanoiDomain
from tests.oracle import (
    RefIndividual,
    evaluate_records,
    mixed_crossover,
    random_crossover,
    state_aware_crossover,
)


def _evaluated(domain, genes):
    ind = RefIndividual(genes=np.asarray(genes, dtype=float))
    ctx = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))
    evaluate_records(SerialEvaluator(), [ind], ctx)
    return ind


class TestRandomCrossover:
    def test_children_are_valid_individuals(self, rng):
        p1 = RefIndividual(genes=rng.random(10))
        p2 = RefIndividual(genes=rng.random(6))
        c1, c2 = random_crossover(p1, p2, rng)
        assert len(c1) >= 1 and len(c2) >= 1

    def test_total_gene_count_preserved(self, rng):
        # One-point crossover redistributes genes without losing any
        # (before MaxLen clipping).
        p1 = RefIndividual(genes=rng.random(10))
        p2 = RefIndividual(genes=rng.random(6))
        c1, c2 = random_crossover(p1, p2, rng, max_len=None)
        assert len(c1) + len(c2) == 16

    def test_max_len_enforced(self, rng):
        p1 = RefIndividual(genes=rng.random(30))
        p2 = RefIndividual(genes=rng.random(30))
        for _ in range(20):
            c1, c2 = random_crossover(p1, p2, rng, max_len=32)
            assert len(c1) <= 32 and len(c2) <= 32

    def test_genes_come_from_parents(self, rng):
        p1 = RefIndividual(genes=np.full(8, 0.25))
        p2 = RefIndividual(genes=np.full(8, 0.75))
        c1, c2 = random_crossover(p1, p2, rng)
        pool = {0.25, 0.75}
        assert set(np.round(c1.genes, 2)) <= pool
        assert set(np.round(c2.genes, 2)) <= pool

    def test_single_gene_parents(self, rng):
        p1 = RefIndividual(genes=np.array([0.2]))
        p2 = RefIndividual(genes=np.array([0.8]))
        c1, c2 = random_crossover(p1, p2, rng)
        assert len(c1) >= 1 and len(c2) >= 1

    def test_children_are_new_objects(self, rng):
        p1 = RefIndividual(genes=rng.random(5))
        p2 = RefIndividual(genes=rng.random(5))
        c1, c2 = random_crossover(p1, p2, rng)
        assert c1 is not p1 and c2 is not p2


class TestStateAwareCrossover:
    def test_requires_decoded_parents(self, rng):
        p1 = RefIndividual(genes=rng.random(5))
        p2 = RefIndividual(genes=rng.random(5))
        with pytest.raises(ValueError, match="decoded"):
            state_aware_crossover(p1, p2, rng)

    def test_preserves_suffix_semantics(self):
        """The defining property: genes to the right of the cut decode to the
        same operations in the child as they did in the donor parent."""
        domain = HanoiDomain(4)
        rng = make_rng(42)
        hits = 0
        for _ in range(40):
            p1 = _evaluated(domain, rng.random(16))
            p2 = _evaluated(domain, rng.random(16))
            c1, c2 = state_aware_crossover(p1, p2, rng, max_len=64)
            if c1.genes is p1.genes and c2.genes is p2.genes:
                continue  # no matching cut; parents copied
            hits += 1
            ctx = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))
            evaluate_records(SerialEvaluator(), [c1, c2], ctx)
            # The child's op sequence must be a prefix of p1's ops followed
            # by a contiguous run of p2's ops: the inherited suffix keeps
            # the meaning it had in the donor parent.
            _assert_spliced(c1.decoded.operations, p1.decoded.operations, p2.decoded.operations)
        assert hits > 0  # identical start states guarantee some matches

    def test_no_match_copies_parents(self):
        """When no matching cut exists the parents survive unchanged."""
        domain = HanoiDomain(3)
        rng = make_rng(7)
        p1 = _evaluated(domain, [0.01] * 4)
        p2 = _evaluated(domain, [0.99] * 4)
        # Run repeatedly; when no matching state exists the parents return.
        c1, c2 = state_aware_crossover(p1, p2, rng)
        assert len(c1) >= 1 and len(c2) >= 1


def _assert_spliced(child_ops, p1_ops, p2_ops):
    """Child ops = prefix of p1's ops + contiguous slice of p2's ops."""
    n = len(child_ops)
    for cut in range(n + 1):
        if tuple(child_ops[:cut]) != tuple(p1_ops[:cut]):
            continue
        suffix = tuple(child_ops[cut:])
        if not suffix:
            return
        for j in range(len(p2_ops) + 1):
            if tuple(p2_ops[j : j + len(suffix)]) == suffix:
                return
    raise AssertionError(
        f"child {child_ops} is not a splice of {p1_ops} and {p2_ops}"
    )


class TestMixedCrossover:
    def test_produces_children(self):
        domain = HanoiDomain(3)
        rng = make_rng(9)
        p1 = _evaluated(domain, rng.random(8))
        p2 = _evaluated(domain, rng.random(8))
        c1, c2 = mixed_crossover(p1, p2, rng, max_len=32)
        assert len(c1) >= 1 and len(c2) >= 1

    def test_falls_back_to_random_not_copy(self):
        """Unlike pure state-aware, mixed must still recombine when no state
        match exists — verify children differ from parents at least once."""
        domain = HanoiDomain(4)
        rng = make_rng(11)
        changed = 0
        for _ in range(30):
            p1 = _evaluated(domain, rng.random(12))
            p2 = _evaluated(domain, rng.random(12))
            c1, c2 = mixed_crossover(p1, p2, rng, max_len=64)
            if not np.array_equal(c1.genes, p1.genes):
                changed += 1
        assert changed > 0

    def test_max_len_enforced(self):
        domain = HanoiDomain(3)
        rng = make_rng(13)
        for _ in range(20):
            p1 = _evaluated(domain, rng.random(20))
            p2 = _evaluated(domain, rng.random(20))
            c1, c2 = mixed_crossover(p1, p2, rng, max_len=24)
            assert len(c1) <= 24 and len(c2) <= 24


class TestDecodeKeyMatching:
    """State-aware matching uses decode-behaviour equivalence (decode_key)."""

    def test_tile_matches_on_blank_position(self):
        """Two different tile states with the same blank position must be
        accepted as a match — the gene→move mapping depends only on the
        blank (the paper's 'same genetic code maps to the same operation
        sequence' condition)."""
        from repro.domains import SlidingTileDomain

        domain = SlidingTileDomain(3)
        rng = make_rng(21)
        spliced = 0
        for _ in range(30):
            p1 = _evaluated(domain, rng.random(12))
            p2 = _evaluated(domain, rng.random(12))
            c1, c2 = state_aware_crossover(p1, p2, rng, max_len=40)
            if not (c1.genes is p1.genes and c2.genes is p2.genes):
                spliced += 1
        # Blank positions coincide often: the vast majority must splice.
        assert spliced >= 20

    def test_tile_suffix_moves_preserved(self):
        """After a blank-position match, the child's inherited suffix decodes
        to the same *move sequence* it had in the donor parent."""
        from repro.domains import SlidingTileDomain

        domain = SlidingTileDomain(3)
        rng = make_rng(22)
        checked = 0
        for _ in range(30):
            p1 = _evaluated(domain, rng.random(10))
            p2 = _evaluated(domain, rng.random(10))
            c1, c2 = state_aware_crossover(p1, p2, rng, max_len=40)
            if c1.genes is p1.genes and c2.genes is p2.genes:
                continue
            ctx = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))
            evaluate_records(SerialEvaluator(), [c1], ctx)
            _assert_spliced(c1.decoded.operations, p1.decoded.operations, p2.decoded.operations)
            checked += 1
        assert checked >= 10
