"""Tests for mutation operators."""

import numpy as np
import pytest

from repro.core import (
    Individual,
    deletion_mutation,
    insertion_mutation,
    make_rng,
)
from tests.oracle import uniform_reset_mutation


class TestUniformReset:
    def test_rate_zero_is_identity(self, rng):
        ind = Individual(genes=rng.random(10))
        assert uniform_reset_mutation(ind, 0.0, rng) is ind

    def test_rate_one_changes_most_genes(self):
        rng = make_rng(0)
        ind = Individual(genes=np.full(100, 0.5))
        out = uniform_reset_mutation(ind, 1.0, rng)
        assert (out.genes != 0.5).sum() > 90  # collisions with 0.5 ~ never

    def test_length_preserved(self, rng):
        ind = Individual(genes=rng.random(17))
        out = uniform_reset_mutation(ind, 0.5, rng)
        assert len(out) == 17

    def test_expected_mutation_count(self):
        rng = make_rng(1)
        ind = Individual(genes=np.full(10_000, 0.5))
        out = uniform_reset_mutation(ind, 0.01, rng)
        changed = int((out.genes != 0.5).sum())
        assert 60 < changed < 140  # ~100 expected

    def test_original_untouched(self, rng):
        genes = rng.random(20)
        ind = Individual(genes=genes)
        uniform_reset_mutation(ind, 1.0, rng)
        assert np.array_equal(ind.genes, genes)

    def test_genes_stay_in_range(self, rng):
        ind = Individual(genes=rng.random(50))
        out = uniform_reset_mutation(ind, 1.0, rng)
        assert (out.genes >= 0).all() and (out.genes < 1).all()

    def test_bad_rate_rejected(self, rng):
        ind = Individual(genes=rng.random(5))
        with pytest.raises(ValueError):
            uniform_reset_mutation(ind, 1.5, rng)

    def test_no_mutation_returns_same_object(self):
        rng = make_rng(2)
        ind = Individual(genes=np.full(3, 0.5))
        # With rate tiny and few genes, usually nothing mutates.
        results = [uniform_reset_mutation(ind, 1e-9, rng) for _ in range(10)]
        assert any(r is ind for r in results)


class TestInsertion:
    def test_length_grows_by_one(self, rng):
        ind = Individual(genes=rng.random(5))
        out = insertion_mutation(ind, rng)
        assert len(out) == 6

    def test_respects_max_len(self, rng):
        ind = Individual(genes=rng.random(5))
        assert insertion_mutation(ind, rng, max_len=5) is ind

    def test_original_genes_present_in_order(self):
        rng = make_rng(3)
        ind = Individual(genes=np.array([0.1, 0.2, 0.3]))
        out = insertion_mutation(ind, rng)
        kept = [g for g in out.genes if g in (0.1, 0.2, 0.3)]
        assert kept == [0.1, 0.2, 0.3]


class TestDeletion:
    def test_length_shrinks_by_one(self, rng):
        ind = Individual(genes=rng.random(5))
        out = deletion_mutation(ind, rng)
        assert len(out) == 4

    def test_minimum_length_one(self, rng):
        ind = Individual(genes=rng.random(1))
        assert deletion_mutation(ind, rng) is ind

    def test_remaining_genes_keep_order(self):
        rng = make_rng(4)
        ind = Individual(genes=np.array([0.1, 0.2, 0.3, 0.4]))
        out = deletion_mutation(ind, rng)
        original = [0.1, 0.2, 0.3, 0.4]
        it = iter(original)
        for g in out.genes:
            for o in it:
                if o == g:
                    break
            else:
                pytest.fail("deletion reordered the surviving genes")
