"""DAG scheduling of workflows onto heterogeneous machines (HEFT).

The grid planner decides *placements* during planning; an alternative
pipeline — the "robust scheduling of metaprograms" line of the paper's
reference [2] — takes the activity graph as given and optimises the
mapping.  This module implements HEFT (Heterogeneous Earliest Finish Time,
Topcuoglu et al.), the standard list scheduler for that problem:

1. rank every task by *upward rank* — its critical-path distance to the
   exit, using mean execution and communication costs;
2. in decreasing rank order, place each task on the machine minimising its
   earliest finish time, accounting for data-arrival times from the
   machines its predecessors ran on.

Inputs are abstract: a DAG (networkx), per-task computation costs per
machine, and per-edge data volumes; :func:`activity_graph_to_dag_problem`
bridges from a grid :class:`ActivityGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx
import numpy as np

__all__ = ["DagSchedule", "heft", "DagProblem", "random_layered_dag"]


@dataclass(frozen=True)
class DagProblem:
    """A DAG-scheduling instance.

    Attributes
    ----------
    graph:
        Dependency DAG over task ids.
    compute:
        ``compute[task][machine] -> seconds``; every task must list every
        machine (use ``inf`` for machines that cannot host a task).
    comm:
        ``comm[(u, v)] -> seconds`` to move u's output to v when they run
        on *different* machines (same-machine transfers are free).  Missing
        edges default to 0.
    machines:
        Machine ids, fixed order.
    """

    graph: nx.DiGraph
    compute: Dict[Hashable, Dict[Hashable, float]]
    comm: Dict[Tuple[Hashable, Hashable], float]
    machines: tuple

    def __post_init__(self) -> None:
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError("task graph must be a DAG")
        for task in self.graph.nodes:
            if task not in self.compute:
                raise ValueError(f"task {task!r} has no compute costs")
            missing = [m for m in self.machines if m not in self.compute[task]]
            if missing:
                raise ValueError(f"task {task!r} missing costs for machines {missing}")


@dataclass
class DagSchedule:
    """A complete schedule: assignment plus per-task timing."""

    assignment: Dict[Hashable, Hashable]
    start: Dict[Hashable, float]
    finish: Dict[Hashable, float]

    @property
    def makespan(self) -> float:
        return max(self.finish.values(), default=0.0)


def _upward_ranks(problem: DagProblem) -> Dict[Hashable, float]:
    """Mean-cost critical-path-to-exit rank for every task."""
    mean_compute = {
        t: float(np.mean([c for c in problem.compute[t].values() if np.isfinite(c)] or [0.0]))
        for t in problem.graph.nodes
    }
    ranks: Dict[Hashable, float] = {}
    for task in reversed(list(nx.topological_sort(problem.graph))):
        best_succ = 0.0
        for succ in problem.graph.successors(task):
            comm = problem.comm.get((task, succ), 0.0)
            best_succ = max(best_succ, comm + ranks[succ])
        ranks[task] = mean_compute[task] + best_succ
    return ranks


def heft(problem: DagProblem) -> DagSchedule:
    """Run HEFT; raises if some task has no finite-cost machine."""
    ranks = _upward_ranks(problem)
    order = sorted(problem.graph.nodes, key=lambda t: ranks[t], reverse=True)

    machine_free: Dict[Hashable, float] = {m: 0.0 for m in problem.machines}
    assignment: Dict[Hashable, Hashable] = {}
    start: Dict[Hashable, float] = {}
    finish: Dict[Hashable, float] = {}

    for task in order:
        best: Optional[Tuple[float, float, Hashable]] = None  # (finish, start, machine)
        for m in problem.machines:
            cost = problem.compute[task][m]
            if not np.isfinite(cost):
                continue
            # Data-ready time: predecessors' finish plus transfer when the
            # predecessor ran elsewhere.
            ready = 0.0
            for pred in problem.graph.predecessors(task):
                arrival = finish[pred]
                if assignment[pred] != m:
                    arrival += problem.comm.get((pred, task), 0.0)
                ready = max(ready, arrival)
            begin = max(ready, machine_free[m])
            end = begin + cost
            if best is None or end < best[0]:
                best = (end, begin, m)
        if best is None:
            raise ValueError(f"task {task!r} has no machine able to host it")
        end, begin, m = best
        assignment[task] = m
        start[task] = begin
        finish[task] = end
        machine_free[m] = end
    return DagSchedule(assignment=assignment, start=start, finish=finish)


def random_layered_dag(
    n_tasks: int,
    n_layers: int,
    rng: np.random.Generator,
    edge_probability: float = 0.5,
) -> nx.DiGraph:
    """A random layered DAG: edges only flow from layer k to layer k+1.

    The classic synthetic-workflow generator shape; every non-first-layer
    task gets at least one predecessor so the DAG is connected front to
    back.
    """
    if n_tasks < n_layers or n_layers < 1:
        raise ValueError("need at least one task per layer")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n_tasks))
    # Spread tasks over layers as evenly as possible.
    layers: List[List[int]] = [[] for _ in range(n_layers)]
    for t in range(n_tasks):
        layers[t % n_layers].append(t)
    for k in range(1, n_layers):
        for task in layers[k]:
            preds = [p for p in layers[k - 1] if rng.random() < edge_probability]
            if not preds:
                preds = [layers[k - 1][int(rng.integers(0, len(layers[k - 1])))]]
            for p in preds:
                graph.add_edge(p, task)
    return graph
