"""Tests for dynamic (on-line) task mapping."""

import numpy as np
import pytest

from repro.scheduling import (
    BATCH_HEURISTICS,
    ETCParams,
    IMMEDIATE_HEURISTICS,
    TaskArrival,
    batch_mode,
    generate_etc,
    immediate_mode,
    poisson_arrivals,
)
from repro.scheduling.dynamic import _make_pick_kpb, _make_pick_sa


@pytest.fixture
def small_etc(rng):
    return generate_etc(ETCParams(n_tasks=40, n_machines=4), rng)


@pytest.fixture
def arrivals(small_etc, rng):
    return poisson_arrivals(small_etc.shape[0], rate=0.2, rng=rng)


class TestArrivals:
    def test_poisson_monotone_times(self, rng):
        arr = poisson_arrivals(50, rate=1.0, rng=rng)
        times = [a.time for a in arr]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_bad_rate(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(5, rate=0, rng=rng)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            TaskArrival(task=0, time=-1.0)


class TestImmediateMode:
    def test_all_heuristics_produce_valid_schedules(self, small_etc, arrivals):
        for name in IMMEDIATE_HEURISTICS:
            r = immediate_mode(small_etc, arrivals, name)
            assert r.assignment.shape == (40,)
            assert (r.assignment >= 0).all() and (r.assignment < 4).all()
            # No task starts before it arrives.
            by_task = {a.task: a.time for a in arrivals}
            for t in range(40):
                assert r.start[t] >= by_task[t] - 1e-9
            # Completion = start + execution on the chosen machine.
            exec_times = small_etc[np.arange(40), r.assignment]
            assert np.allclose(r.completion, r.start + exec_times)

    def test_no_machine_overlap(self, small_etc, arrivals):
        r = immediate_mode(small_etc, arrivals, "MCT")
        for m in range(4):
            tasks = np.where(r.assignment == m)[0]
            intervals = sorted((r.start[t], r.completion[t]) for t in tasks)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    def test_mct_beats_olb(self, small_etc, arrivals):
        mct = immediate_mode(small_etc, arrivals, "MCT")
        olb = immediate_mode(small_etc, arrivals, "OLB")
        assert mct.makespan <= olb.makespan

    def test_met_matches_argmin(self, small_etc, arrivals):
        r = immediate_mode(small_etc, arrivals, "MET")
        assert np.array_equal(r.assignment, small_etc.argmin(axis=1))

    def test_kpb_100_percent_is_mct(self, small_etc, arrivals):
        kpb = immediate_mode(small_etc, arrivals, _make_pick_kpb(100.0))
        mct = immediate_mode(small_etc, arrivals, "MCT")
        assert np.array_equal(kpb.assignment, mct.assignment)

    def test_kpb_validation(self):
        with pytest.raises(ValueError):
            _make_pick_kpb(0)
        with pytest.raises(ValueError):
            _make_pick_kpb(150)

    def test_sa_thresholds_validated(self):
        with pytest.raises(ValueError):
            _make_pick_sa(low=0.9, high=0.6)

    def test_arrival_coverage_validated(self, small_etc):
        with pytest.raises(ValueError, match="exactly once"):
            immediate_mode(small_etc, [TaskArrival(0, 0.0)])


class TestBatchMode:
    def test_all_heuristics_valid(self, small_etc, arrivals):
        for name in BATCH_HEURISTICS:
            r = batch_mode(small_etc, arrivals, interval=30.0, heuristic=name)
            assert r.assignment.shape == (40,)
            by_task = {a.task: a.time for a in arrivals}
            for t in range(40):
                assert r.start[t] >= by_task[t] - 1e-9

    def test_tasks_start_at_or_after_mapping_event(self, small_etc, arrivals):
        interval = 25.0
        r = batch_mode(small_etc, arrivals, interval=interval)
        by_task = {a.task: a.time for a in arrivals}
        for t in range(40):
            # The first mapping event at or after the arrival.
            import math

            event = math.ceil(by_task[t] / interval) * interval
            assert r.start[t] >= min(event, max(a.time for a in arrivals)) - 1e-6

    def test_interval_validated(self, small_etc, arrivals):
        with pytest.raises(ValueError):
            batch_mode(small_etc, arrivals, interval=0)

    def test_single_big_batch_matches_static_min_min_shape(self, rng):
        """All tasks arriving at t=0 in one batch behaves like static
        Min-min (same greedy rule, same ready-time bookkeeping)."""
        from repro.scheduling import makespan, min_min

        etc = generate_etc(ETCParams(n_tasks=30, n_machines=4), rng)
        arrivals = [TaskArrival(i, 0.0) for i in range(30)]
        batch = batch_mode(etc, arrivals, interval=1.0, heuristic="Min-min")
        static = makespan(etc, min_min(etc))
        assert batch.makespan == pytest.approx(static, rel=0.3)

    def test_no_machine_overlap(self, small_etc, arrivals):
        r = batch_mode(small_etc, arrivals, interval=40.0, heuristic="Sufferage")
        for m in range(4):
            tasks = np.where(r.assignment == m)[0]
            intervals = sorted((r.start[t], r.completion[t]) for t in tasks)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
