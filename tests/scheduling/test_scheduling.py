"""Tests for the ETC benchmark, mapping heuristics, metrics, GA mapper."""

import numpy as np
import pytest

from repro.core import make_rng
from repro.scheduling import (
    ETCParams,
    GASchedulerConfig,
    HEURISTICS,
    flowtime,
    ga_schedule,
    generate_etc,
    machine_loads,
    makespan,
    mct,
    met,
    min_min,
    olb,
)


class TestETCGeneration:
    def test_shape_and_positivity(self, rng):
        etc = generate_etc(ETCParams(n_tasks=32, n_machines=4), rng)
        assert etc.shape == (32, 4)
        assert (etc > 0).all()

    def test_consistent_rows_sorted(self, rng):
        etc = generate_etc(
            ETCParams(n_tasks=64, n_machines=8, consistency="consistent"), rng
        )
        assert (np.diff(etc, axis=1) >= 0).all()

    def test_semi_consistent_even_columns_sorted(self, rng):
        etc = generate_etc(ETCParams(n_tasks=64, n_machines=8, consistency="semi"), rng)
        sub = etc[:, ::2]
        assert (np.diff(sub, axis=1) >= 0).all()
        # Full matrix not sorted (overwhelmingly likely at this size).
        assert not (np.diff(etc, axis=1) >= 0).all()

    def test_inconsistent_not_sorted(self, rng):
        etc = generate_etc(
            ETCParams(n_tasks=64, n_machines=8, consistency="inconsistent"), rng
        )
        assert not (np.diff(etc, axis=1) >= 0).all()

    def test_heterogeneity_ranges_respected(self, rng):
        p = ETCParams(n_tasks=2000, n_machines=4, task_heterogeneity=10, machine_heterogeneity=5)
        etc = generate_etc(p, rng)
        assert etc.max() <= 10 * 5
        assert etc.min() >= 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ETCParams(n_tasks=0)
        with pytest.raises(ValueError):
            ETCParams(task_heterogeneity=1.0)
        with pytest.raises(ValueError):
            ETCParams(consistency="weird")

    def test_reproducible(self):
        p = ETCParams(n_tasks=16, n_machines=4)
        a = generate_etc(p, make_rng(5))
        b = generate_etc(p, make_rng(5))
        assert np.array_equal(a, b)


class TestMetrics:
    def test_machine_loads(self):
        etc = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assign = np.array([0, 1, 0])
        loads = machine_loads(etc, assign)
        assert loads.tolist() == [6.0, 4.0]

    def test_makespan(self):
        etc = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert makespan(etc, np.array([0, 0])) == 4.0
        assert makespan(etc, np.array([0, 1])) == 4.0
        assert makespan(etc, np.array([1, 0])) == 3.0

    def test_flowtime_fifo(self):
        etc = np.array([[2.0, 9.0], [3.0, 9.0]])
        # Both on machine 0: completions 2 and 5 -> flowtime 7.
        assert flowtime(etc, np.array([0, 0])) == 7.0

    def test_assignment_validation(self):
        etc = np.ones((3, 2))
        with pytest.raises(ValueError):
            makespan(etc, np.array([0, 1]))  # wrong length
        with pytest.raises(ValueError):
            makespan(etc, np.array([0, 1, 5]))  # machine out of range


class TestHeuristics:
    def _etc(self, seed=0, **kw):
        base = dict(n_tasks=64, n_machines=8, consistency="inconsistent")
        base.update(kw)
        return generate_etc(ETCParams(**base), make_rng(seed))

    def test_all_return_valid_assignments(self):
        etc = self._etc()
        for name, h in HEURISTICS.items():
            assign = h(etc)
            assert assign.shape == (64,)
            assert assign.min() >= 0 and assign.max() < 8

    def test_met_picks_fastest_machine_per_task(self):
        etc = self._etc()
        assign = met(etc)
        assert np.array_equal(assign, etc.argmin(axis=1))

    def test_met_degenerates_on_consistent(self):
        etc = self._etc(consistency="consistent")
        assign = met(etc)
        assert set(assign.tolist()) == {0}  # everything on the global best

    def test_mct_beats_met_on_consistent(self):
        etc = self._etc(consistency="consistent")
        assert makespan(etc, mct(etc)) < makespan(etc, met(etc))

    def test_min_min_beats_olb(self):
        etc = self._etc()
        assert makespan(etc, min_min(etc)) < makespan(etc, olb(etc))

    def test_makespans_in_expected_band(self):
        """Min-min, Sufferage and MCT all land well under OLB; Max-min is
        between (the qualitative ordering from Braun et al.)."""
        etc = self._etc(seed=3, n_tasks=128)
        spans = {name: makespan(etc, h(etc)) for name, h in HEURISTICS.items()}
        assert spans["Min-min"] < spans["OLB"]
        assert spans["Sufferage"] < spans["OLB"]
        assert spans["MCT"] < spans["OLB"]

    def test_single_machine(self):
        etc = self._etc(n_machines=1)
        for h in HEURISTICS.values():
            assert set(h(etc).tolist()) == {0}

    def test_bad_etc_rejected(self):
        with pytest.raises(ValueError):
            min_min(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            olb(np.ones(3))


class TestGAScheduler:
    def test_improves_over_random(self):
        etc = generate_etc(ETCParams(n_tasks=64, n_machines=8), make_rng(0))
        rng = make_rng(1)
        random_span = makespan(etc, rng.integers(0, 8, size=64))
        res = ga_schedule(etc, GASchedulerConfig(generations=60), make_rng(2))
        assert res.makespan < random_span

    def test_at_least_as_good_as_min_min_seed(self):
        etc = generate_etc(ETCParams(n_tasks=64, n_machines=8), make_rng(3))
        res = ga_schedule(etc, GASchedulerConfig(generations=80), make_rng(4))
        assert res.makespan <= makespan(etc, min_min(etc)) + 1e-9

    def test_history_tracks_progress(self):
        etc = generate_etc(ETCParams(n_tasks=32, n_machines=4), make_rng(5))
        res = ga_schedule(etc, GASchedulerConfig(generations=30), make_rng(6))
        assert res.generations == 30
        assert len(res.history) == 30

    def test_without_seed(self):
        etc = generate_etc(ETCParams(n_tasks=32, n_machines=4), make_rng(7))
        res = ga_schedule(
            etc, GASchedulerConfig(generations=20, seed_min_min=False), make_rng(8)
        )
        assert res.assignment.shape == (32,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GASchedulerConfig(population_size=1)
        with pytest.raises(ValueError):
            GASchedulerConfig(elitism=100, population_size=100)
        with pytest.raises(ValueError):
            GASchedulerConfig(flowtime_weight=2.0)

    def test_reproducible(self):
        etc = generate_etc(ETCParams(n_tasks=32, n_machines=4), make_rng(9))
        a = ga_schedule(etc, GASchedulerConfig(generations=15), make_rng(10))
        b = ga_schedule(etc, GASchedulerConfig(generations=15), make_rng(10))
        assert np.array_equal(a.assignment, b.assignment)
