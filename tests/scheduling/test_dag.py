"""Tests for the HEFT DAG scheduler and the random workflow generator."""

import math

import networkx as nx
import pytest

from repro.core import make_rng
from repro.scheduling import DagProblem, heft, random_layered_dag


def _chain_problem(costs):
    """Linear chain t0 -> t1 -> ... with given per-machine cost dicts."""
    g = nx.DiGraph()
    n = len(costs)
    g.add_nodes_from(range(n))
    g.add_edges_from((i, i + 1) for i in range(n - 1))
    machines = tuple(sorted({m for c in costs for m in c}))
    return DagProblem(graph=g, compute=dict(enumerate(costs)), comm={}, machines=machines)


class TestDagProblem:
    def test_cycle_rejected(self):
        g = nx.DiGraph([(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="DAG"):
            DagProblem(graph=g, compute={0: {"m": 1}, 1: {"m": 1}}, comm={}, machines=("m",))

    def test_missing_costs_rejected(self):
        g = nx.DiGraph()
        g.add_node(0)
        with pytest.raises(ValueError, match="no compute costs"):
            DagProblem(graph=g, compute={}, comm={}, machines=("m",))
        with pytest.raises(ValueError, match="missing costs"):
            DagProblem(graph=g, compute={0: {}}, comm={}, machines=("m",))


class TestHeft:
    def test_chain_picks_fastest_machine(self):
        p = _chain_problem([{"slow": 10.0, "fast": 1.0}] * 3)
        s = heft(p)
        assert all(m == "fast" for m in s.assignment.values())
        assert s.makespan == pytest.approx(3.0)

    def test_respects_dependencies(self):
        rng = make_rng(0)
        g = random_layered_dag(15, 5, rng)
        machines = ("a", "b")
        compute = {t: {m: float(rng.uniform(1, 5)) for m in machines} for t in g.nodes}
        comm = {e: float(rng.uniform(0, 1)) for e in g.edges}
        s = heft(DagProblem(graph=g, compute=compute, comm=comm, machines=machines))
        for u, v in g.edges:
            gap = comm[(u, v)] if s.assignment[u] != s.assignment[v] else 0.0
            assert s.start[v] >= s.finish[u] + gap - 1e-9

    def test_no_machine_overlap(self):
        rng = make_rng(1)
        g = random_layered_dag(20, 4, rng)
        machines = ("a", "b", "c")
        compute = {t: {m: float(rng.uniform(1, 5)) for m in machines} for t in g.nodes}
        s = heft(DagProblem(graph=g, compute=compute, comm={}, machines=machines))
        for m in machines:
            tasks = sorted(
                (t for t, mm in s.assignment.items() if mm == m),
                key=lambda t: s.start[t],
            )
            for t1, t2 in zip(tasks, tasks[1:]):
                assert s.start[t2] >= s.finish[t1] - 1e-9

    def test_infinite_cost_machines_avoided(self):
        p = _chain_problem([{"a": math.inf, "b": 2.0}, {"a": 1.0, "b": 2.0}])
        s = heft(p)
        assert s.assignment[0] == "b"

    def test_unschedulable_task_raises(self):
        p = _chain_problem([{"a": math.inf}])
        with pytest.raises(ValueError, match="no machine"):
            heft(p)

    def test_parallel_tasks_spread_over_machines(self):
        # Two independent equal tasks and two equal machines: HEFT should
        # use both rather than queueing on one.
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        p = DagProblem(
            graph=g,
            compute={0: {"a": 5.0, "b": 5.0}, 1: {"a": 5.0, "b": 5.0}},
            comm={},
            machines=("a", "b"),
        )
        s = heft(p)
        assert {s.assignment[0], s.assignment[1]} == {"a", "b"}
        assert s.makespan == pytest.approx(5.0)

    def test_beats_single_machine_baseline(self):
        rng = make_rng(2)
        g = random_layered_dag(24, 4, rng)
        machines = ("a", "b", "c", "d")
        compute = {t: {m: float(rng.uniform(1, 8)) for m in machines} for t in g.nodes}
        s = heft(DagProblem(graph=g, compute=compute, comm={}, machines=machines))
        single = sum(compute[t]["a"] for t in g.nodes)
        assert s.makespan < single


class TestRandomLayeredDag:
    def test_structure(self):
        rng = make_rng(3)
        g = random_layered_dag(20, 5, rng)
        assert g.number_of_nodes() == 20
        assert nx.is_directed_acyclic_graph(g)

    def test_every_later_task_has_predecessor(self):
        rng = make_rng(4)
        g = random_layered_dag(18, 6, rng, edge_probability=0.1)
        first_layer = {t for t in g.nodes if t % 6 == 0}
        for t in g.nodes:
            if t not in first_layer:
                assert g.in_degree(t) >= 1

    def test_validation(self):
        rng = make_rng(5)
        with pytest.raises(ValueError):
            random_layered_dag(2, 5, rng)
        with pytest.raises(ValueError):
            random_layered_dag(10, 2, rng, edge_probability=1.5)


class TestGridBridge:
    def test_activity_graph_schedules(self):
        from repro.grid import imaging_pipeline, plan_to_activity_graph
        from repro.grid.activity_graph import activity_graph_to_dag_problem
        from repro.planning.search import goal_gap, greedy_best_first

        onto, domain = imaging_pipeline()
        r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
        ag = plan_to_activity_graph(domain, r.plan)
        problem = activity_graph_to_dag_problem(ag, onto)
        schedule = heft(problem)
        assert len(schedule.assignment) == len(ag)
        # Transfers stay pinned to their planned source machine.
        for act in ag.activities():
            if act.kind == "transfer":
                assert schedule.assignment[act.id] == act.op.src
        # Runs land only on hardware that satisfies the program.
        for act in ag.activities():
            if act.kind == "run":
                program = onto.programs[act.op.program]
                machine = onto.topology.machines[schedule.assignment[act.id]]
                assert program.machine_ok(machine)
