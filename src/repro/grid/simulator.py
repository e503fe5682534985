"""Discrete-event simulator for activity-graph execution on the grid.

This is the substitution for a real grid deployment (DESIGN.md §2): a
classic event-queue simulator with, per machine, one compute server and one
network interface, both FIFO.  Program runs occupy the compute server of
their machine for ``flops / effective_speed`` seconds (speed frozen at task
start); transfers occupy the *source* machine's NIC for the topology's
transfer time, concurrently with computation.

Dynamic events — machine failure, recovery, and load changes — are injected
on a schedule.  A failure kills the running and queued tasks of that machine
and marks it down; whether the simulation aborts (so a coordination service
can replan) or keeps driving the unaffected part of the DAG is the caller's
choice.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.grid.activity_graph import Activity, ActivityGraph
from repro.grid.ontology import Ontology
from repro.grid.resources import GridTopology
from repro.grid.workflow_domain import RunProgram, Transfer
from repro.obs.events import FaultInjected, SimulationComplete
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer

__all__ = [
    "GridEvent",
    "TaskRecord",
    "ExecutionResult",
    "GridSimulator",
    "MACHINE_EVENT_KINDS",
    "LINK_EVENT_KINDS",
]


#: Machine-level event kinds (``machine`` names a machine, ``peer`` unused).
MACHINE_EVENT_KINDS = ("fail", "restore", "load")
#: Link-level event kinds (``machine``/``peer`` name the two sites).
LINK_EVENT_KINDS = ("link-degrade", "partition", "link-restore")


@dataclass(frozen=True)
class GridEvent:
    """A scheduled change to the grid.

    Machine events: ``kind`` is ``"fail"``, ``"restore"`` or ``"load"``
    (``value`` is the new load factor for ``"load"``).  Link events:
    ``kind`` is ``"link-degrade"`` (``value`` is the bandwidth divisor),
    ``"partition"`` or ``"link-restore"``, with ``machine``/``peer``
    naming the two endpoint sites.
    """

    time: float
    kind: str
    machine: str
    value: float = 0.0
    peer: str = ""

    def __post_init__(self) -> None:
        if self.kind not in MACHINE_EVENT_KINDS + LINK_EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.kind in LINK_EVENT_KINDS and not self.peer:
            raise ValueError(f"{self.kind} events need a peer site")

    @property
    def target(self) -> str:
        """The machine, or ``"siteA--siteB"`` for link events."""
        return f"{self.machine}--{self.peer}" if self.peer else self.machine


@dataclass
class TaskRecord:
    """Execution record of one activity."""

    activity_id: int
    description: str
    machine: str
    start: float
    end: float
    status: str  # "done" | "failed" | "cancelled"


@dataclass
class ExecutionResult:
    """Outcome of simulating an activity graph.

    ``completed`` holds activity ids that finished; ``placements`` is the
    set of ``(product, machine)`` placements realised (initial ∪ produced by
    completed activities) — exactly the observed state replanning restarts
    from.
    """

    trace: List[TaskRecord]
    makespan: float
    completed: Set[int]
    failed: Set[int]
    placements: frozenset
    success: bool
    aborted_at: Optional[float] = None


def _check_monotone(events: Sequence[GridEvent]) -> Tuple[GridEvent, ...]:
    """Validate that *events* arrive in non-decreasing time order.

    The simulator used to sort injected timelines silently, which masked
    caller bugs (a fault plan assembled out of order replays differently
    than the caller believes).  Out-of-order events now raise immediately,
    naming the offending pair.
    """
    out = tuple(events)
    for i in range(1, len(out)):
        if out[i].time < out[i - 1].time:
            raise ValueError(
                f"grid events must be in non-decreasing time order: event {i} "
                f"({out[i].kind} {out[i].target!r} at t={out[i].time:g}) precedes "
                f"event {i - 1} ({out[i - 1].kind} {out[i - 1].target!r} at "
                f"t={out[i - 1].time:g})"
            )
    return out


class GridSimulator:
    """Event-driven executor of activity graphs over a mutable topology.

    The simulator mutates its :class:`GridTopology` (loads, failures), so a
    fresh topology copy — or sequential reuse with care — is expected per
    experiment.

    Each :meth:`execute` call reports through the observability layer: a
    ``sim-complete`` event on *tracer* plus ``sim_execute`` timer and
    ``sim_tasks_done`` / ``sim_tasks_failed`` counters on *metrics* (both
    default to the ambient pair).
    """

    def __init__(
        self,
        ontology: Ontology,
        events: Sequence[GridEvent] = (),
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.ontology = ontology
        self.topology: GridTopology = ontology.topology
        self.events = _check_monotone(events)
        self.tracer = tracer if tracer is not None else default_tracer()
        self.metrics = metrics if metrics is not None else default_metrics()

    # -- durations ---------------------------------------------------------------

    def _duration(self, activity: Activity) -> float:
        op = activity.op
        if isinstance(op, RunProgram):
            machine = self.topology.machines[op.machine]
            return self.ontology.programs[op.program].runtime_on(machine)
        if isinstance(op, Transfer):
            t = self.topology.transfer_time(
                op.src, op.dst, self.ontology.volume_of(op.product.dtype)
            )
            if t is None:
                raise ValueError(f"no route for {op}")
            return t
        raise TypeError(f"cannot simulate operation {type(op).__name__}")

    @staticmethod
    def _server_of(activity: Activity) -> Tuple[str, str]:
        """(machine, server) the activity occupies: compute or NIC."""
        op = activity.op
        if isinstance(op, RunProgram):
            return op.machine, "cpu"
        if isinstance(op, Transfer):
            return op.src, "nic"
        raise TypeError(f"cannot simulate operation {type(op).__name__}")

    # -- main loop ---------------------------------------------------------------

    def execute(
        self,
        graph: ActivityGraph,
        initial_placements: frozenset,
        abort_on_failure: bool = False,
    ) -> ExecutionResult:
        """Simulate *graph*; see class docstring for the failure contract."""
        wall0 = time.perf_counter()
        remaining_deps: Dict[int, int] = {
            a.id: len(graph.predecessors(a.id)) for a in graph.activities()
        }
        queues: Dict[Tuple[str, str], List[int]] = {}
        busy: Dict[Tuple[str, str], Optional[int]] = {}
        started_at: Dict[int, float] = {}
        trace: List[TaskRecord] = []
        completed: Set[int] = set()
        failed: Set[int] = set()
        placements = set(initial_placements)

        heap: List[Tuple[float, int, str, object]] = []
        seq = itertools.count()

        def push(time: float, kind: str, payload: object) -> None:
            heapq.heappush(heap, (time, next(seq), kind, payload))

        for ev in self.events:
            push(ev.time, "grid-event", ev)

        def enqueue(activity: Activity, now: float) -> None:
            server = self._server_of(activity)
            machine = self.topology.machines[server[0]]
            if not machine.up:
                fail(activity.id, now, "machine down at dispatch")
                return
            queues.setdefault(server, []).append(activity.id)
            maybe_start(server, now)

        def maybe_start(server: Tuple[str, str], now: float) -> None:
            if busy.get(server) is not None:
                return
            queue = queues.get(server, [])
            while queue:
                aid = queue.pop(0)
                activity = graph.activity(aid)
                try:
                    duration = self._duration(activity)
                except ValueError:
                    # A partition can sever a transfer's route between
                    # enqueue and start; that's a task failure, not a
                    # simulator crash.
                    fail(aid, now, "no route at start")
                    continue
                busy[server] = aid
                started_at[aid] = now
                push(now + duration, "finish", aid)
                return

        faults_applied = 0

        def apply_topology_change(ev: GridEvent) -> None:
            if ev.kind == "fail":
                self.topology.fail_machine(ev.machine)
            elif ev.kind == "restore":
                self.topology.restore_machine(ev.machine)
            elif ev.kind == "load":
                self.topology.set_load(ev.machine, ev.value)
            elif ev.kind == "link-degrade":
                self.topology.degrade_link(ev.machine, ev.peer, ev.value)
            elif ev.kind == "partition":
                self.topology.partition_link(ev.machine, ev.peer)
            elif ev.kind == "link-restore":
                self.topology.restore_link(ev.machine, ev.peer)

        def note_fault(ev: GridEvent, t: float) -> None:
            nonlocal faults_applied
            faults_applied += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    FaultInjected(
                        scope="sim", at=t, fault=ev.kind, target=ev.target, value=ev.value
                    )
                )

        def fail(aid: int, now: float, reason: str) -> None:
            activity = graph.activity(aid)
            failed.add(aid)
            trace.append(
                TaskRecord(
                    activity_id=aid,
                    description=f"{activity.op} ({reason})",
                    machine=self._server_of(activity)[0],
                    start=started_at.get(aid, now),
                    end=now,
                    status="failed",
                )
            )

        # Seed: activities with no unfinished dependencies.
        for activity in graph.topological_order():
            if remaining_deps[activity.id] == 0:
                enqueue(activity, 0.0)

        now = 0.0
        aborted_at: Optional[float] = None
        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == "finish":
                aid = payload
                if aid in failed:
                    continue  # killed by a failure event while "running"
                activity = graph.activity(aid)
                server = self._server_of(activity)
                busy[server] = None
                completed.add(aid)
                placements.update(activity.produces)
                trace.append(
                    TaskRecord(
                        activity_id=aid,
                        description=str(activity.op),
                        machine=server[0],
                        start=started_at[aid],
                        end=now,
                        status="done",
                    )
                )
                for succ in graph.successors(aid):
                    remaining_deps[succ] -= 1
                    if remaining_deps[succ] == 0:
                        enqueue(graph.activity(succ), now)
                maybe_start(server, now)
            elif kind == "grid-event":
                ev = payload
                apply_topology_change(ev)
                note_fault(ev, now)
                if ev.kind == "fail":
                    # Kill running + queued work on every server of the machine.
                    for server in list(busy):
                        if server[0] != ev.machine:
                            continue
                        aid = busy[server]
                        if aid is not None:
                            fail(aid, now, f"machine {ev.machine} failed")
                            busy[server] = None
                        for queued in queues.get(server, []):
                            fail(queued, now, f"machine {ev.machine} failed")
                        queues[server] = []
                    if abort_on_failure:
                        aborted_at = now
                        # Apply every other grid event scheduled for this
                        # same instant before aborting: the caller filters
                        # replay events strictly after the abort time, so
                        # simultaneous events would otherwise be lost.
                        while heap and heap[0][0] <= now:
                            _t, _, k2, p2 = heapq.heappop(heap)
                            if k2 != "grid-event":
                                continue
                            apply_topology_change(p2)
                            note_fault(p2, now)
                        break

        success = len(completed) == len(graph)
        makespan = max((r.end for r in trace if r.status == "done"), default=0.0)
        seconds = time.perf_counter() - wall0
        if self.metrics is not None:
            self.metrics.timer("sim_execute").record(seconds)
            self.metrics.counter("sim_tasks_done").add(len(completed))
            self.metrics.counter("sim_tasks_failed").add(len(failed))
            if faults_applied:
                self.metrics.counter("faults_injected").add(faults_applied)
        if self.tracer.enabled:
            self.tracer.emit(
                SimulationComplete(
                    makespan=makespan,
                    tasks_done=len(completed),
                    tasks_failed=len(failed),
                    success=success,
                    seconds=seconds,
                )
            )
        return ExecutionResult(
            trace=trace,
            makespan=makespan,
            completed=completed,
            failed=failed,
            placements=frozenset(placements),
            success=success,
            aborted_at=aborted_at,
        )
