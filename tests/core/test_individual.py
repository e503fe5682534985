"""Tests for genomes at the edge of a run: seed validation, best-genome ranking."""

import numpy as np
import pytest

from repro.core import GAConfig, GARun, decode, make_rng
from repro.core.fitness import FitnessResult
from repro.core.ga import BestGenome
from repro.domains import HanoiDomain


def _fit(goal, total):
    return FitnessResult(goal=goal, cost=0.5, total=total, goal_reached=goal >= 1.0)


def _seeded(*seeds):
    config = GAConfig(population_size=4, generations=1, max_len=8, init_length=4)
    return GARun(HanoiDomain(3), config, make_rng(0), seeds=list(seeds))


def _best(goal, total):
    genes = np.array([0.5])
    domain = HanoiDomain(3)
    decoded = decode(genes, domain, domain.initial_state)
    return BestGenome(genes=genes, fitness=_fit(goal, total), decoded=decoded)


class TestConstruction:
    def test_genes_are_read_only(self):
        run = _seeded(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            run.buffer.view(0)[0] = 0.9

    def test_source_array_is_copied(self):
        src = np.array([0.1, 0.2])
        run = _seeded(src)
        src[0] = 0.9
        assert run.buffer.view(0)[0] == pytest.approx(0.1)

    def test_empty_genome_rejected(self):
        with pytest.raises(ValueError, match="at least one gene"):
            _seeded(np.array([]))

    def test_out_of_range_genes_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _seeded(np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _seeded(np.array([-0.1]))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _seeded(np.array([0.5, np.nan]))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            _seeded(np.zeros((2, 2)))

    def test_len(self):
        run = _seeded(np.array([0.1, 0.2, 0.3]))
        assert run.buffer.lengths[0] == 3


class TestSortKey:
    def test_goal_fitness_dominates(self):
        a = _best(goal=0.9, total=0.5)
        b = _best(goal=0.8, total=0.99)
        assert a.sort_key() > b.sort_key()

    def test_total_breaks_ties(self):
        a = _best(goal=0.9, total=0.7)
        b = _best(goal=0.9, total=0.6)
        assert a.sort_key() > b.sort_key()
