"""Tests for tournament selection (the reference operator in ``tests/oracle.py``)."""

import numpy as np
import pytest

from repro.core import make_rng
from repro.core.fitness import FitnessResult
from tests.oracle import RefIndividual, tournament_selection


def _pop(fitnesses):
    pop = []
    for f in fitnesses:
        ind = RefIndividual(genes=np.array([min(f, 0.999)]))
        ind.fitness = FitnessResult(goal=f, cost=0.5, total=f)
        pop.append(ind)
    return pop


class TestTournament:
    def test_returns_requested_count(self, rng):
        pop = _pop([0.1, 0.5, 0.9])
        out = tournament_selection(pop, 10, rng)
        assert len(out) == 10

    def test_selected_are_copies(self, rng):
        pop = _pop([0.1, 0.9])
        out = tournament_selection(pop, 4, rng)
        for sel in out:
            assert all(sel is not orig for orig in pop)

    def test_pressure_toward_fitter(self):
        rng = make_rng(0)
        pop = _pop([0.1] * 50 + [0.9] * 50)
        out = tournament_selection(pop, 1000, rng, tournament_size=2)
        high = sum(1 for ind in out if ind.total_fitness > 0.5)
        # With k=2 tournaments over a 50/50 split, the fitter half wins 75%.
        assert 0.70 < high / 1000 < 0.80

    def test_tournament_of_one_is_uniform(self):
        rng = make_rng(1)
        pop = _pop([0.1] * 50 + [0.9] * 50)
        out = tournament_selection(pop, 2000, rng, tournament_size=1)
        high = sum(1 for ind in out if ind.total_fitness > 0.5)
        assert 0.45 < high / 2000 < 0.55

    def test_larger_tournament_more_pressure(self):
        rng = make_rng(2)
        pop = _pop([0.1] * 50 + [0.9] * 50)
        k2 = sum(i.total_fitness > 0.5 for i in tournament_selection(pop, 2000, rng, 2))
        k5 = sum(i.total_fitness > 0.5 for i in tournament_selection(pop, 2000, rng, 5))
        assert k5 > k2

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ValueError):
            tournament_selection([], 1, rng)

    def test_unevaluated_population_rejected(self, rng):
        pop = [RefIndividual(genes=np.array([0.5]))]
        with pytest.raises(ValueError):
            tournament_selection(pop, 1, rng)

    def test_bad_tournament_size(self, rng):
        with pytest.raises(ValueError):
            tournament_selection(_pop([0.5]), 1, rng, tournament_size=0)
