"""The soak loop: streaming co-simulation with continuous replanning.

:class:`SoakRunner` turns the one-shot grid simulator into an open-ended
digital twin (DESIGN.md §13).  One global event heap interleaves, in
simulated time,

- **arrivals** from a seeded :class:`~repro.soak.arrivals.ArrivalStream`,
- **grid churn** from a :class:`~repro.faults.injector.FaultInjector`
  timeline (machine crash/restore, load shifts, link degrade/partition),
- **completions** of in-flight workflow requests.

Each admitted request is planned, compiled to an activity graph and
*segment-simulated* on the current topology (a fault-free
:class:`~repro.grid.simulator.GridSimulator` run yields the per-activity
schedule and the estimated completion time).  Churn is applied exactly once
to the shared topology by the soak loop itself; the
:class:`~repro.soak.controller.ReplanController` then classifies which
in-flight schedules the event invalidates and replans only those, from the
placements their finished activities actually produced — the degradation
ladder (repair → warm GA → greedy → shed) bounded by each request's
deadline.  Requests whose best replan cannot make their deadline, or whose
replan budget is exhausted, are shed rather than allowed to clog the loop.

Determinism: everything on the simulated clock is a pure function of
``SoakConfig`` — the canonical :meth:`SoakReport.event_log` is
byte-identical across same-seed runs (asserted by the hypothesis suite in
``tests/soak/test_soak_determinism.py``).  Wall-clock replan latency is
observed into metrics/events but never feeds back into simulated time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.config import GAConfig
from repro.faults.injector import FaultInjector
from repro.grid.activity_graph import ActivityGraph, plan_to_activity_graph
from repro.grid.ontology import Ontology
from repro.grid.simulator import GridEvent, GridSimulator
from repro.grid.workflow_domain import GridWorkflowDomain
from repro.obs.events import (
    FaultInjected,
    RequestArrived,
    RequestCompleted,
    RequestShed,
)
from repro.obs.metrics import MetricsRegistry, soak_summary
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.soak.arrivals import ArrivalStream, WorkflowRequest, request_domain, soak_ontology
from repro.soak.controller import ReplanController

__all__ = ["SoakConfig", "SoakReport", "SoakRunner", "run_soak"]

# Heap tiebreak: at equal simulated times, completions land before churn
# (work that finished *at* t finished), churn before arrivals (a request
# arriving at t plans against the already-changed grid).
_COMPLETE, _FAULT, _ARRIVAL = 0, 1, 2


@dataclass(frozen=True)
class SoakConfig:
    """Parameters of one soak run; everything that feeds determinism.

    ``arrival`` and ``faults`` are :mod:`repro.faults` spec strings (the
    former must contain at least one ``arrival:`` clause; the latter may be
    ``None`` for a churn-free control run).  ``deadline_factor`` scales each
    request's initial makespan estimate into its completion deadline;
    ``replan_budget_s`` is the per-request wall-clock planning budget that
    gates the GA rung; ``max_replans`` caps churn-triggered rounds per
    request before it is shed.
    """

    duration: float = 300.0
    arrival: str = "arrival:rate=0.05"
    faults: Optional[str] = None
    seed: int = 0
    n_sites: int = 3
    machines_per_site: int = 2
    n_stages: int = 3
    deadline_factor: float = 4.0
    replan_budget_s: float = 2.0
    max_replans: int = 5
    ga_config: Optional[GAConfig] = None

    def __post_init__(self) -> None:
        """Reject out-of-range parameters with a :class:`ValueError`."""
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")
        if self.max_replans < 0:
            raise ValueError("max_replans must be non-negative")

    @property
    def replan_mode(self) -> str:
        """Always ``"incremental"``: replanning is the degradation ladder.

        Not a setting; run records that name the replan mode (the
        benchmark harness's soak-churn workload) read it here.
        """
        return "incremental"


@dataclass
class _InFlight:
    """Book-keeping for one admitted request's current schedule segment."""

    request: WorkflowRequest
    domain: GridWorkflowDomain
    plan: Tuple
    graph: ActivityGraph
    #: ``(activity_id, global_start, global_end)`` per activity, id order.
    schedule: List[Tuple[int, float, float]]
    base_placements: frozenset
    segment_start: float
    completion: float
    deadline: float
    replans: int = 0
    epoch: int = 0
    wall_replan_s: float = 0.0

    def pending_ids(self, now: float) -> List[int]:
        """Activity ids whose scheduled end lies after ``now``."""
        return [aid for aid, _s, e in self.schedule if e > now]

    def observed_placements(self, now: float) -> frozenset:
        """World state at ``now``: base placements plus finished outputs."""
        placements = set(self.base_placements)
        for aid, _s, e in self.schedule:
            if e <= now:
                placements.update(self.graph.activity(aid).produces)
        return frozenset(placements)


@dataclass(frozen=True)
class SoakReport:
    """Outcome of a soak run plus the canonical deterministic event log."""

    duration: float
    seed: int
    arrived: int
    completed: int
    shed: int
    inflight: int
    replans: int
    replan_latencies: Tuple[float, ...]
    log: Tuple[str, ...]
    metrics_summary: dict = field(default_factory=dict)

    @property
    def completion_rate(self) -> float:
        """Completed over resolved (completed + shed) requests."""
        resolved = self.completed + self.shed
        return self.completed / resolved if resolved else 0.0

    def event_log(self) -> str:
        """The canonical log: simulated-time events only, no wall-clock.

        Two same-seed soak runs produce byte-identical logs; the soak
        determinism suite and the soak-churn benchmark workload assert
        exactly this string.
        """
        return "\n".join(self.log) + "\n"


class SoakRunner:
    """Drives one soak run to completion."""

    def __init__(
        self,
        config: SoakConfig,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else default_tracer()
        metrics = metrics if metrics is not None else default_metrics()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ontology: Ontology = soak_ontology(
            config.seed,
            n_sites=config.n_sites,
            machines_per_site=config.machines_per_site,
            n_stages=config.n_stages,
        )
        self.controller = ReplanController(
            self.ontology,
            ga_config=config.ga_config,
            replan_budget_s=config.replan_budget_s,
            seed=config.seed,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        # Segment simulations are estimation machinery, not run events:
        # keep their sim-complete chatter out of the soak trace.
        self._segment_tracer = Tracer([])

    # -- public API ----------------------------------------------------------

    def run(self) -> SoakReport:
        """Run the configured soak to its horizon and report."""
        cfg = self.config
        heap: List[Tuple[float, int, int, object]] = []
        seq = 0

        def push(at: float, prio: int, payload: object) -> None:
            """Enqueue with a monotone sequence number as the final tiebreak."""
            nonlocal seq
            heappush(heap, (at, prio, seq, payload))
            seq += 1

        arrivals = ArrivalStream(cfg.arrival, seed=cfg.seed).requests(
            self.ontology, cfg.duration
        )
        for req in arrivals:
            push(req.at, _ARRIVAL, req)
        if cfg.faults:
            plan = FaultInjector(cfg.faults, seed=cfg.seed).plan(
                topology=self.ontology.topology, horizon=cfg.duration
            )
            for ev in plan.grid_events:
                push(ev.time, _FAULT, ev)

        self._log: List[str] = []
        self._inflight: Dict[int, _InFlight] = {}
        self._completed = 0
        self._shed = 0
        self._latencies: List[float] = []

        while heap:
            at, prio, _, payload = heappop(heap)
            if at > cfg.duration:
                break
            if prio == _ARRIVAL:
                self._on_arrival(payload, at, push)
            elif prio == _FAULT:
                self._on_fault(payload, at, push)
            else:
                self._on_complete(payload, at)

        summary = dict(self.metrics.summary())
        summary["derived"] = soak_summary(self.metrics)
        return SoakReport(
            duration=cfg.duration,
            seed=cfg.seed,
            arrived=len(arrivals),
            completed=self._completed,
            shed=self._shed,
            inflight=len(self._inflight),
            replans=int(self.metrics.counter("soak_replans").value),
            replan_latencies=tuple(self._latencies),
            log=tuple(self._log),
            metrics_summary=summary,
        )

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self, req: WorkflowRequest, at: float, push) -> None:
        self.metrics.counter("soak_requests").add(1)
        domain = request_domain(self.ontology, req, self.config.n_stages)
        t0 = time.perf_counter()
        from repro.soak.controller import _greedy, relaxed_feasible

        if not relaxed_feasible(domain, domain.initial_state):
            plan = None  # provably unreachable on the current topology
        else:
            plan = _greedy(domain, domain.initial_state)
        self.metrics.timer("plan_latency").record(time.perf_counter() - t0)
        if plan is None:
            self._emit_arrived(req, at, plan_length=0, estimate=at)
            self._shed_request(req.request_id, at, "unplannable", replans=0)
            return
        segment = self._segment(domain, tuple(plan), domain.initial_state, at)
        if segment is None:
            self._emit_arrived(req, at, plan_length=len(plan), estimate=at)
            self._shed_request(req.request_id, at, "execution-failed", replans=0)
            return
        graph, schedule, completion = segment
        flight = _InFlight(
            request=req,
            domain=domain,
            plan=tuple(plan),
            graph=graph,
            schedule=schedule,
            base_placements=domain.initial_state,
            segment_start=at,
            completion=completion,
            deadline=at + self.config.deadline_factor * (completion - at),
        )
        self._inflight[req.request_id] = flight
        self._emit_arrived(req, at, plan_length=len(plan), estimate=completion)
        push(completion, _COMPLETE, (req.request_id, flight.epoch))

    def _on_fault(self, ev: GridEvent, at: float, push) -> None:
        self._apply_topology_change(ev)
        self.metrics.counter("faults_injected").add(1)
        if self.tracer.enabled:
            self.tracer.emit(
                FaultInjected(
                    scope="soak", at=at, fault=ev.kind, target=ev.target, value=ev.value
                )
            )
        self._log.append(f"t={at:.6f} fault {ev.kind} {ev.target}")
        hit_any = False
        # Deterministic order: requests by id.
        for rid in sorted(self._inflight):
            flight = self._inflight[rid]
            pending = flight.pending_ids(at)
            pending_ops = [flight.graph.activity(aid).op for aid in pending]
            if not self.controller.invalidates(ev, pending_ops):
                continue
            hit_any = True
            self._replan_flight(flight, pending, at, push)
        if not hit_any:
            self.metrics.counter("soak_soft_churn").add(1)

    def _on_complete(self, payload: Tuple[int, int], at: float) -> None:
        rid, epoch = payload
        flight = self._inflight.get(rid)
        if flight is None or flight.epoch != epoch:
            return  # stale: the request replanned or was shed meanwhile
        del self._inflight[rid]
        self._completed += 1
        duration = at - flight.request.at
        deadline_met = at <= flight.deadline
        self.metrics.counter("soak_completed").add(1)
        if deadline_met:
            self.metrics.counter("soak_deadline_met").add(1)
        self.metrics.histogram("request_duration").observe(duration)
        if self.tracer.enabled:
            self.tracer.emit(
                RequestCompleted(
                    scope="soak",
                    request_id=rid,
                    at=at,
                    duration=duration,
                    replans=flight.replans,
                    deadline_met=deadline_met,
                )
            )
        self._log.append(
            f"t={at:.6f} complete req={rid} replans={flight.replans} "
            f"deadline_met={deadline_met}"
        )

    # -- replanning ----------------------------------------------------------

    def _replan_flight(
        self, flight: _InFlight, pending: List[int], at: float, push
    ) -> None:
        rid = flight.request.request_id
        flight.epoch += 1  # invalidate the scheduled completion
        observed = flight.observed_placements(at)
        new_domain = GridWorkflowDomain(
            ontology=self.ontology,
            initial_placements=observed,
            goal=flight.domain.goal,
            max_transfers_per_product=flight.domain.max_transfers_per_product,
        )
        if new_domain.is_goal(observed):
            # The surviving activities already delivered the goal.
            del self._inflight[rid]
            self._on_complete_now(flight, at)
            return
        if flight.replans >= self.config.max_replans:
            del self._inflight[rid]
            self._shed_request(rid, at, "replan-budget", replans=flight.replans)
            return
        old_suffix = [flight.graph.activity(aid).op for aid in pending]
        decision = self.controller.replan(
            new_domain,
            old_suffix,
            flight.request,
            now=at,
            round_index=flight.replans,
            wall_spent_s=flight.wall_replan_s,
        )
        flight.replans += 1
        flight.wall_replan_s += decision.seconds
        self._latencies.append(decision.seconds)
        if decision.plan is None:
            del self._inflight[rid]
            self._shed_request(rid, at, "no-plan", replans=flight.replans)
            return
        segment = self._segment(new_domain, decision.plan, observed, at)
        if segment is None:
            del self._inflight[rid]
            self._shed_request(rid, at, "execution-failed", replans=flight.replans)
            return
        graph, schedule, completion = segment
        self._log.append(
            f"t={at:.6f} replan req={rid} rung={decision.rung} "
            f"reused={decision.reused} repaired={decision.repaired} "
            f"plan={len(decision.plan)} est={completion:.6f}"
        )
        if completion > flight.deadline:
            del self._inflight[rid]
            self._shed_request(rid, at, "deadline", replans=flight.replans)
            return
        flight.domain = new_domain
        flight.plan = decision.plan
        flight.graph = graph
        flight.schedule = schedule
        flight.base_placements = observed
        flight.segment_start = at
        flight.completion = completion
        push(completion, _COMPLETE, (rid, flight.epoch))

    def _on_complete_now(self, flight: _InFlight, at: float) -> None:
        """Goal already satisfied by the surviving prefix: complete in place."""
        self._completed += 1
        duration = at - flight.request.at
        deadline_met = at <= flight.deadline
        self.metrics.counter("soak_completed").add(1)
        if deadline_met:
            self.metrics.counter("soak_deadline_met").add(1)
        self.metrics.histogram("request_duration").observe(duration)
        if self.tracer.enabled:
            self.tracer.emit(
                RequestCompleted(
                    scope="soak",
                    request_id=flight.request.request_id,
                    at=at,
                    duration=duration,
                    replans=flight.replans,
                    deadline_met=deadline_met,
                )
            )
        self._log.append(
            f"t={at:.6f} complete req={flight.request.request_id} "
            f"replans={flight.replans} deadline_met={deadline_met}"
        )

    # -- helpers -------------------------------------------------------------

    def _segment(
        self,
        domain: GridWorkflowDomain,
        plan: Tuple,
        placements: frozenset,
        start: float,
    ) -> Optional[Tuple[ActivityGraph, List[Tuple[int, float, float]], float]]:
        """Compile + fault-free-simulate *plan*; None when execution fails.

        The returned schedule holds global activity windows; the simulation
        itself runs on the *current* topology (loads, failures as of
        *start*), which is what makes the estimate honest.
        """
        try:
            graph = plan_to_activity_graph(domain, plan)
        except (TypeError, ValueError):
            return None
        sim = GridSimulator(
            self.ontology, events=(), tracer=self._segment_tracer, metrics=self.metrics
        )
        result = sim.execute(graph, placements, abort_on_failure=False)
        if not result.success:
            return None
        windows: Dict[int, Tuple[float, float]] = {
            r.activity_id: (start + r.start, start + r.end)
            for r in result.trace
            if r.status == "done"
        }
        schedule = [(aid, s, e) for aid, (s, e) in sorted(windows.items())]
        return graph, schedule, start + result.makespan

    def _apply_topology_change(self, ev: GridEvent) -> None:
        topo = self.ontology.topology
        if ev.kind == "fail":
            topo.fail_machine(ev.machine)
        elif ev.kind == "restore":
            topo.restore_machine(ev.machine)
        elif ev.kind == "load":
            topo.set_load(ev.machine, ev.value)
        elif ev.kind == "link-degrade":
            topo.degrade_link(ev.machine, ev.peer, ev.value)
        elif ev.kind == "partition":
            topo.partition_link(ev.machine, ev.peer)
        elif ev.kind == "link-restore":
            topo.restore_link(ev.machine, ev.peer)

    def _emit_arrived(
        self, req: WorkflowRequest, at: float, plan_length: int, estimate: float
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                RequestArrived(
                    scope="soak",
                    request_id=req.request_id,
                    at=at,
                    plan_length=plan_length,
                    estimate=estimate,
                )
            )
        self._log.append(
            f"t={at:.6f} arrive req={req.request_id} src={req.source} "
            f"dst={req.sink} plan={plan_length} est={estimate:.6f}"
        )

    def _shed_request(self, rid: int, at: float, reason: str, replans: int) -> None:
        self._shed += 1
        self.metrics.counter("soak_shed").add(1)
        if self.tracer.enabled:
            self.tracer.emit(
                RequestShed(
                    scope="soak", request_id=rid, at=at, reason=reason, replans=replans
                )
            )
        self._log.append(f"t={at:.6f} shed req={rid} reason={reason}")


def run_soak(
    config: SoakConfig,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SoakReport:
    """Convenience wrapper: build a :class:`SoakRunner` and run it."""
    return SoakRunner(config, tracer=tracer, metrics=metrics).run()
