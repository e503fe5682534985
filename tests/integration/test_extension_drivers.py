"""Integration tests for the extension study drivers."""

import dataclasses

from repro.analysis import fitness_accuracy_study
from repro.analysis.experiments import ExperimentScale
from repro.exp import get_spec, run_inline
from repro.exp.islands_portfolio import STRUCTURES

TINY = ExperimentScale.scaled(
    population_size=24,
    generations_single=25,
    generations_phase=10,
    runs_hanoi=2,
    runs_tile=2,
    hanoi_disks=(3,),
    tile_sizes=(3,),
)


class TestFitnessAccuracyStudy:
    def test_structure(self):
        t = fitness_accuracy_study(TINY, seed=1, n_disks=3, tile_n=3)
        assert len(t.rows) == 4
        domains = t.column("Domain")
        assert domains.count("hanoi-3") == 2 and domains.count("tile-3x3") == 2
        for solved, total in zip(t.column("Solved Runs"), t.column("Total Runs")):
            assert 0 <= solved <= total == 2

    def test_reproducible(self):
        a = fitness_accuracy_study(TINY, seed=2, n_disks=3).rows
        b = fitness_accuracy_study(TINY, seed=2, n_disks=3).rows
        assert a == b


class TestIslandStudy:
    """The ``islands-portfolio`` sweep: structures compared per disk count."""

    @staticmethod
    def _table(seed):
        spec = dataclasses.replace(get_spec("islands-portfolio"), base_seed=seed)
        return run_inline(spec, scale=TINY).table()

    def test_structure(self):
        t = self._table(seed=3)
        assert t.column("Structure") == list(STRUCTURES)
        assert t.column("Disks") == [3, 3, 3]
        assert all(0.0 <= f <= 1.0 for f in t.column("Avg Goal Fitness"))

    def test_total_runs_consistent(self):
        t = self._table(seed=4)
        assert t.column("Total Runs") == [TINY.runs_hanoi] * len(STRUCTURES)
