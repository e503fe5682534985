"""Tests for mutation operators."""

import numpy as np
import pytest

from repro.core import make_rng
from tests.oracle import RefIndividual, uniform_reset_mutation


class TestUniformReset:
    def test_rate_zero_is_identity(self, rng):
        ind = RefIndividual(genes=rng.random(10))
        assert uniform_reset_mutation(ind, 0.0, rng) is ind

    def test_rate_one_changes_most_genes(self):
        rng = make_rng(0)
        ind = RefIndividual(genes=np.full(100, 0.5))
        out = uniform_reset_mutation(ind, 1.0, rng)
        assert (out.genes != 0.5).sum() > 90  # collisions with 0.5 ~ never

    def test_length_preserved(self, rng):
        ind = RefIndividual(genes=rng.random(17))
        out = uniform_reset_mutation(ind, 0.5, rng)
        assert len(out) == 17

    def test_expected_mutation_count(self):
        rng = make_rng(1)
        ind = RefIndividual(genes=np.full(10_000, 0.5))
        out = uniform_reset_mutation(ind, 0.01, rng)
        changed = int((out.genes != 0.5).sum())
        assert 60 < changed < 140  # ~100 expected

    def test_original_untouched(self, rng):
        genes = rng.random(20)
        ind = RefIndividual(genes=genes)
        uniform_reset_mutation(ind, 1.0, rng)
        assert np.array_equal(ind.genes, genes)

    def test_genes_stay_in_range(self, rng):
        ind = RefIndividual(genes=rng.random(50))
        out = uniform_reset_mutation(ind, 1.0, rng)
        assert (out.genes >= 0).all() and (out.genes < 1).all()

    def test_bad_rate_rejected(self, rng):
        ind = RefIndividual(genes=rng.random(5))
        with pytest.raises(ValueError):
            uniform_reset_mutation(ind, 1.5, rng)

    def test_no_mutation_returns_same_object(self):
        rng = make_rng(2)
        ind = RefIndividual(genes=np.full(3, 0.5))
        # With rate tiny and few genes, usually nothing mutates.
        results = [uniform_reset_mutation(ind, 1e-9, rng) for _ in range(10)]
        assert any(r is ind for r in results)
