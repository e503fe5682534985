"""Activity graphs: the workflow DAG a plan compiles into.

"The objective of planning in the context of the execution of complex tasks
on a grid is to construct an activity graph describing a transformation of
input data into a different set of data" — this module is that construction.
A linear plan over :class:`~repro.grid.workflow_domain.GridWorkflowDomain`
operations becomes a DAG whose nodes are activities (program runs and
transfers) and whose edges are data dependencies; independent activities are
then free to execute concurrently under the coordination service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.grid.data import DataProduct
from repro.grid.workflow_domain import GridWorkflowDomain, RunProgram, Transfer

__all__ = ["Activity", "ActivityGraph", "activity_graph_to_dag_problem", "plan_to_activity_graph", "to_dot"]


@dataclass(frozen=True)
class Activity:
    """One node of the activity graph.

    ``kind`` is ``"run"`` or ``"transfer"``; ``op`` is the underlying
    planning operation; ``produces`` lists ``(product, machine)`` placements
    the activity creates and ``consumes`` the ones it needs.
    """

    id: int
    kind: str
    op: object
    consumes: tuple
    produces: tuple

    @property
    def label(self) -> str:
        return f"a{self.id}:{self.op}"


class ActivityGraph:
    """A validated DAG of activities over a grid domain.

    Each activity keeps its successor and predecessor ids in the order the
    edges were added, which is the order networkx's ``nx.DiGraph`` keeps
    them in; :meth:`topological_order` walks them as ``nx.topological_sort``
    does, so orders (and the simulations seeded from them) match networkx.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Activity] = {}
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}

    def add(self, activity: Activity, depends_on: Sequence[int] = ()) -> None:
        """Register *activity* after the existing activities it depends on.

        Every dependency is checked before anything is registered, so a
        rejected add leaves the graph unchanged.  Each edge runs from an
        existing activity to the new one, so the graph stays acyclic.
        """
        if activity.id in self._by_id:
            raise ValueError(f"duplicate activity id {activity.id}")
        deps = list(dict.fromkeys(depends_on))
        for dep in deps:
            if dep not in self._by_id:
                raise ValueError(f"activity {activity.id} depends on unknown activity {dep}")
        self._by_id[activity.id] = activity
        self._succ[activity.id] = []
        self._pred[activity.id] = deps
        for dep in deps:
            self._succ[dep].append(activity.id)

    def activity(self, activity_id: int) -> Activity:
        return self._by_id[activity_id]

    def activities(self) -> List[Activity]:
        return [self._by_id[i] for i in sorted(self._by_id)]

    def topological_order(self) -> List[Activity]:
        """Kahn levels in insertion order (networkx's ``topological_generations``)."""
        indegree = {aid: len(preds) for aid, preds in self._pred.items()}
        level = [aid for aid, n in indegree.items() if n == 0]
        order: List[int] = []
        while level:
            order.extend(level)
            next_level = []
            for aid in level:
                for child in self._succ[aid]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        next_level.append(child)
            level = next_level
        return [self._by_id[i] for i in order]

    def predecessors(self, activity_id: int) -> List[int]:
        return sorted(self._pred[activity_id])

    def successors(self, activity_id: int) -> List[int]:
        """Dependent activity ids, in the order their edges were added."""
        return list(self._succ[activity_id])

    def edges(self) -> List[Tuple[int, int]]:
        """``(dependency, dependent)`` pairs, grouped by dependency in insertion order."""
        return [(src, dst) for src, dsts in self._succ.items() for dst in dsts]

    def __len__(self) -> int:
        return len(self._by_id)

    def critical_path_length(self, duration_of) -> float:
        """Longest path through the DAG under *duration_of(activity)*."""
        longest: Dict[int, float] = {}
        for act in self.topological_order():
            base = max((longest[p] for p in self._pred[act.id]), default=0.0)
            longest[act.id] = base + duration_of(act)
        return max(longest.values(), default=0.0)


def plan_to_activity_graph(
    domain: GridWorkflowDomain, plan: Sequence[object]
) -> ActivityGraph:
    """Compile a linear plan into an activity DAG with data-dependency edges.

    An activity depends on the most recent earlier activity that produced
    each placement it consumes; placements present in the initial state have
    no producer.  Plan steps with no data flow between them end up
    unordered — that is the concurrency the coordination service exploits.
    """
    ag = ActivityGraph()
    producer: Dict[Tuple[DataProduct, str], int] = {}
    ids = itertools.count()
    for op in plan:
        aid = next(ids)
        if isinstance(op, RunProgram):
            consumes = tuple((p, op.machine) for p in op.inputs)
            produces = tuple((o, op.machine) for o in op.outputs)
            kind = "run"
        elif isinstance(op, Transfer):
            consumes = ((op.product, op.src),)
            produces = ((op.product, op.dst),)
            kind = "transfer"
        else:
            raise TypeError(f"cannot compile operation of type {type(op).__name__}")
        deps = sorted({producer[c] for c in consumes if c in producer})
        missing = [c for c in consumes if c not in producer and c not in domain.initial_state]
        if missing:
            raise ValueError(
                f"plan step {op} consumes placements never produced: {missing}"
            )
        ag.add(
            Activity(id=aid, kind=kind, op=op, consumes=consumes, produces=produces),
            depends_on=deps,
        )
        for placement in produces:
            producer[placement] = aid
    return ag


def to_dot(graph: ActivityGraph) -> str:
    """Graphviz DOT rendering of an activity graph.

    Run nodes are boxes, transfers are ellipses; edges are data
    dependencies.  Paste into any DOT viewer — handy when debugging why a
    workflow serialised the way it did.
    """
    lines = ["digraph activity {", "  rankdir=LR;"]
    for act in graph.activities():
        shape = "box" if act.kind == "run" else "ellipse"
        label = str(act.op).replace('"', "'")
        lines.append(f'  a{act.id} [shape={shape}, label="{label}"];')
    for src, dst in graph.edges():
        lines.append(f"  a{src} -> a{dst};")
    lines.append("}")
    return "\n".join(lines)


def activity_graph_to_dag_problem(graph: ActivityGraph, ontology) -> "object":
    """Bridge a grid activity graph to a :class:`DagProblem` for HEFT.

    Run activities may be re-placed on any machine that satisfies the
    program's hardware preconditions (cost = runtime there); transfer
    activities stay pinned to their planned endpoints (their duration is a
    property of the route, not of a host).  Edge communication volumes come
    from the produced placements' data types.
    """
    import networkx as nx

    from repro.scheduling.dag import DagProblem

    machines = tuple(ontology.topology.machine_names())
    compute: dict = {}
    for act in graph.activities():
        row: dict = {}
        if act.kind == "run":
            program = ontology.programs[act.op.program]
            for m in machines:
                machine = ontology.topology.machines[m]
                row[m] = (
                    program.runtime_on(machine)
                    if program.machine_ok(machine)
                    else float("inf")
                )
        else:
            duration = ontology.topology.transfer_time(
                act.op.src, act.op.dst, ontology.volume_of(act.op.product.dtype)
            )
            for m in machines:
                # Pinned: only the source machine "hosts" the transfer.
                row[m] = duration if m == act.op.src else float("inf")
        compute[act.id] = row

    comm: dict = {}
    for src, dst in graph.edges():
        produced = graph.activity(src).produces
        volume = sum(ontology.volume_of(p.dtype) for p, _m in produced)
        # Worst-case inter-site estimate: slowest pairwise route.
        times = [
            ontology.topology.transfer_time(a, b, volume)
            for a in machines
            for b in machines
            if a != b
        ]
        finite = [t for t in times if t is not None]
        comm[(src, dst)] = max(finite) if finite else 0.0
    dag = nx.DiGraph()
    dag.add_nodes_from(graph._by_id)
    dag.add_edges_from(graph.edges())
    return DagProblem(graph=dag, compute=compute, comm=comm, machines=machines)
