"""Tests for activity-graph compilation and the discrete-event simulator."""

import pytest

from repro.grid import (
    Activity,
    ActivityGraph,
    GridEvent,
    GridSimulator,
    RunProgram,
    Transfer,
    imaging_pipeline,
    plan_to_activity_graph,
)
from repro.planning.search import goal_gap, greedy_best_first


@pytest.fixture
def pipeline_plan():
    onto, domain = imaging_pipeline()
    r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
    assert r.solved
    return onto, domain, r.plan


class TestActivityGraph:
    def test_compilation_counts(self, pipeline_plan):
        _, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        assert len(ag) == len(plan)
        kinds = {a.kind for a in ag.activities()}
        assert kinds == {"run", "transfer"}

    def test_dependencies_follow_data_flow(self, pipeline_plan):
        _, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        # Every run activity must depend (transitively) on whatever produced
        # its inputs; here it suffices that topological order exists and the
        # first activity has no predecessors.
        order = ag.topological_order()
        assert ag.predecessors(order[0].id) == []
        # The last run in the pipeline consumes something produced earlier.
        runs = [a for a in ag.activities() if a.kind == "run"]
        assert any(ag.predecessors(a.id) for a in runs)

    def test_missing_producer_detected(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        # Drop the first step: a later consumer references a missing placement.
        with pytest.raises(ValueError, match="never produced"):
            plan_to_activity_graph(domain, plan[1:])

    def test_critical_path(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        sim = GridSimulator(onto)
        cp = ag.critical_path_length(sim._duration)
        assert cp > 0

    def test_independent_steps_unordered(self):
        onto, domain = imaging_pipeline()
        raw = next(iter(domain.initial_state))[0]
        plan = (
            Transfer(raw, "lab-ws", "campus-a"),
            Transfer(raw, "lab-ws", "hpc-1"),
        )
        ag = plan_to_activity_graph(domain, plan)
        assert ag.predecessors(0) == [] and ag.predecessors(1) == []

    @pytest.mark.parametrize("deps", [(0, 7), (2,), (1, 2)], ids=["unknown", "self", "self-late"])
    def test_rejected_add_leaves_graph_unchanged(self, deps):
        ag = ActivityGraph()
        for aid, before in ((0, ()), (1, (0,))):
            ag.add(Activity(id=aid, kind="run", op=aid, consumes=(), produces=()), before)
        snapshot = (len(ag), ag.edges(), [a.id for a in ag.topological_order()])
        new = Activity(id=2, kind="run", op=2, consumes=(), produces=())
        with pytest.raises(ValueError, match="unknown activity"):
            ag.add(new, depends_on=deps)
        assert (len(ag), ag.edges(), [a.id for a in ag.topological_order()]) == snapshot
        ag.add(new, depends_on=(1,))  # the same id is still free
        assert ag.edges() == [(0, 1), (1, 2)]


class TestSimulator:
    def test_successful_execution(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        res = GridSimulator(onto).execute(ag, domain.initial_state)
        assert res.success
        assert res.makespan > 0
        assert len(res.completed) == len(ag)
        assert domain.is_goal(res.placements)

    def test_makespan_at_least_critical_path(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        sim = GridSimulator(onto)
        cp = ag.critical_path_length(sim._duration)
        res = sim.execute(ag, domain.initial_state)
        assert res.makespan >= cp - 1e-9

    def test_trace_times_ordered(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        res = GridSimulator(onto).execute(ag, domain.initial_state)
        for rec in res.trace:
            assert rec.end >= rec.start >= 0.0

    def test_failure_kills_machine_tasks(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        # Identify the machine that hosts the compute steps and fail it early.
        run_machines = {op.machine for op in plan if isinstance(op, RunProgram)}
        victim = sorted(run_machines)[0]
        events = [GridEvent(time=1.0, kind="fail", machine=victim)]
        res = GridSimulator(onto, events=events).execute(ag, domain.initial_state)
        assert not res.success
        assert res.failed

    def test_abort_on_failure(self, pipeline_plan):
        onto, domain, plan = pipeline_plan
        ag = plan_to_activity_graph(domain, plan)
        victim = sorted({op.machine for op in plan if isinstance(op, RunProgram)})[0]
        events = [GridEvent(time=1.0, kind="fail", machine=victim)]
        res = GridSimulator(onto, events=events).execute(
            ag, domain.initial_state, abort_on_failure=True
        )
        assert res.aborted_at == pytest.approx(1.0)

    def test_load_event_slows_execution(self):
        onto, domain = imaging_pipeline()
        r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
        ag = plan_to_activity_graph(domain, r.plan)
        base = GridSimulator(onto).execute(ag, domain.initial_state)

        onto2, domain2 = imaging_pipeline()
        r2 = greedy_best_first(domain2, goal_gap(domain2, scale=100.0), max_expansions=100_000)
        ag2 = plan_to_activity_graph(domain2, r2.plan)
        # Overload every machine from t=0.
        events = [
            GridEvent(time=0.0, kind="load", machine=m, value=4.0)
            for m in onto2.topology.machine_names()
        ]
        loaded = GridSimulator(onto2, events=events).execute(ag2, domain2.initial_state)
        assert loaded.success
        assert loaded.makespan > base.makespan

    def test_restore_event(self):
        onto, domain = imaging_pipeline()
        r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
        ag = plan_to_activity_graph(domain, r.plan)
        # Fail an unused machine and restore it: execution is unaffected.
        used = {op.machine for op in r.plan if isinstance(op, RunProgram)}
        unused = next(m for m in onto.topology.machine_names() if m not in used)
        events = [
            GridEvent(time=0.5, kind="fail", machine=unused),
            GridEvent(time=1.0, kind="restore", machine=unused),
        ]
        res = GridSimulator(onto, events=events).execute(ag, domain.initial_state)
        assert res.success
        assert onto.topology.machines[unused].up

    def test_bad_event_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GridEvent(time=0.0, kind="explode", machine="m")

    def test_negative_event_time_rejected(self):
        with pytest.raises(ValueError):
            GridEvent(time=-1.0, kind="fail", machine="m")

    def test_out_of_order_events_rejected(self):
        """The simulator refuses unsorted timelines instead of silently
        reordering them (a caller bug it used to paper over)."""
        onto, _domain = imaging_pipeline()
        machine = onto.topology.machine_names()[0]
        events = [
            GridEvent(time=2.0, kind="fail", machine=machine),
            GridEvent(time=1.0, kind="restore", machine=machine),
        ]
        with pytest.raises(ValueError, match="non-decreasing"):
            GridSimulator(onto, events=events)

    def test_monotonicity_error_names_the_offending_pair(self):
        onto, _domain = imaging_pipeline()
        machine = onto.topology.machine_names()[0]
        events = [
            GridEvent(time=5.0, kind="fail", machine=machine),
            GridEvent(time=3.0, kind="restore", machine=machine),
        ]
        with pytest.raises(ValueError, match=r"t=3.*t=5|event 1"):
            GridSimulator(onto, events=events)

    def test_equal_times_allowed(self):
        onto, domain = imaging_pipeline()
        machine = onto.topology.machine_names()[0]
        unused = [
            m for m in onto.topology.machine_names()
            if m != machine
        ][0]
        events = [
            GridEvent(time=1.0, kind="fail", machine=unused),
            GridEvent(time=1.0, kind="restore", machine=unused),
        ]
        # Ties are fine: injection order breaks them, as documented.
        GridSimulator(onto, events=events)
