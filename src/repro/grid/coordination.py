"""Coordination service with dynamic replanning — the paper's workflow story.

The coordination service takes a goal, obtains a plan (from any planner —
the GA planner or a classical baseline), compiles it to an activity graph,
and supervises execution on the simulator.  When the grid changes under it —
a machine fails or becomes overloaded mid-execution — it observes the
placements achieved so far, rebuilds the planning domain from that observed
state (over the *changed* topology), replans, and resumes.  "A static script
is incapable of taking advantage of the full range of alternatives to carry
out a computation, while planning does."
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.grid.activity_graph import ActivityGraph, plan_to_activity_graph
from repro.grid.ontology import Ontology
from repro.grid.simulator import ExecutionResult, GridEvent, GridSimulator
from repro.grid.workflow_domain import GridWorkflowDomain
from repro.obs.events import ReplanTriggered
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer

__all__ = [
    "Attempt",
    "CoordinationReport",
    "CoordinationService",
    "greedy_grid_planner",
    "ga_grid_planner",
]

# A planner is any callable from domain to an operation sequence (or None).
Planner = Callable[[GridWorkflowDomain], Optional[Sequence[object]]]


@dataclass
class Attempt:
    """One plan-and-execute round."""

    plan: tuple
    graph: ActivityGraph
    result: ExecutionResult


@dataclass
class CoordinationReport:
    """End-to-end outcome across all replanning rounds."""

    attempts: List[Attempt]
    success: bool
    replans: int
    final_placements: frozenset
    total_makespan: float
    planning_seconds: float

    @property
    def total_activities_run(self) -> int:
        return sum(len(a.result.completed) for a in self.attempts)


def greedy_grid_planner(max_expansions: int = 200_000) -> Planner:
    """A fast deterministic planner: greedy best-first on the goal gap.

    Useful both as a baseline against the GA planner and as the quick
    replanner when re-planning time *is* a concern (the paper: "the time
    required by the planning algorithm is of concern and may limit the
    applicability").
    """

    def plan(domain: GridWorkflowDomain) -> Optional[Sequence[object]]:
        from repro.planning.search import goal_gap, greedy_best_first

        result = greedy_best_first(
            domain, goal_gap(domain, scale=100.0), max_expansions=max_expansions
        )
        return result.plan

    return plan


def ga_grid_planner(
    config=None,
    phases: int = 3,
    seed: int = 0,
) -> Planner:
    """The paper's planner as a replanner: multi-phase GA from the current state.

    Each invocation restarts the multi-phase GA on the domain the
    coordination service rebuilt from the *observed* placements over the
    *changed* topology — the phase mechanism doubles as the recovery
    primitive ("plans must be cheap to re-generate").  The seed is fixed,
    so a replanning sequence is deterministic given the fault timeline.
    """

    def plan(domain: GridWorkflowDomain) -> Optional[Sequence[object]]:
        from repro.core import GAConfig, GAPlanner

        cfg = config or GAConfig(
            population_size=100, generations=60, max_len=20, init_length=8
        )
        outcome = GAPlanner(domain, cfg, multiphase=phases, seed=seed).solve()
        return outcome.plan if outcome.solved else None

    return plan


class CoordinationService:
    """Supervises plan execution and replans on grid changes."""

    def __init__(
        self,
        ontology: Ontology,
        planner: Planner,
        max_replans: int = 3,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_replans < 0:
            raise ValueError("max_replans must be non-negative")
        self.ontology = ontology
        self.planner = planner
        self.max_replans = max_replans
        self.tracer = tracer if tracer is not None else default_tracer()
        self.metrics = metrics if metrics is not None else default_metrics()

    def run(
        self,
        domain: GridWorkflowDomain,
        events: Sequence[GridEvent] = (),
    ) -> CoordinationReport:
        """Plan, execute, and replan until the goal is met or budget exhausted."""
        placements = domain.initial_state
        pending_events = sorted(events, key=lambda e: e.time)
        attempts: List[Attempt] = []
        clock = 0.0
        planning_s = 0.0

        for round_index in range(self.max_replans + 1):
            # Rebuild the domain from the observed state over the (possibly
            # mutated) topology, then plan.
            current = GridWorkflowDomain(
                ontology=self.ontology,
                initial_placements=placements,
                goal=domain.goal,
                max_transfers_per_product=domain.max_transfers_per_product,
            )
            if current.is_goal(placements):
                break
            t0 = time.perf_counter()
            plan = self.planner(current)
            planning_s += time.perf_counter() - t0
            if plan is None:
                break  # no plan exists from here; give up
            graph = plan_to_activity_graph(current, plan)
            # Events are absolute; shift them into this round's local clock.
            # Strictly after the clock: an event *at* the abort instant was
            # already applied to the (shared, mutated) topology last round.
            local_events = [
                GridEvent(e.time - clock, e.kind, e.machine, e.value, e.peer)
                for e in pending_events
                if e.time > clock
            ]
            sim = GridSimulator(
                self.ontology, events=local_events, tracer=self.tracer, metrics=self.metrics
            )
            result = sim.execute(graph, placements, abort_on_failure=True)
            attempts.append(Attempt(plan=tuple(plan), graph=graph, result=result))
            placements = result.placements
            if result.aborted_at is not None:
                clock += result.aborted_at
                # Grid changed under us: replan from the observed state.
                if self.metrics is not None:
                    self.metrics.counter("replans").add(1)
                if self.tracer.enabled:
                    self.tracer.emit(
                        ReplanTriggered(
                            scope="coordination",
                            round_index=round_index,
                            at=clock,
                            completed=len(result.completed),
                            reason="grid event aborted execution",
                        )
                    )
                continue
            clock += result.makespan
            break

        success = domain.is_goal(placements)
        return CoordinationReport(
            attempts=attempts,
            success=success,
            replans=max(0, len(attempts) - 1),
            final_placements=placements,
            total_makespan=clock,
            planning_seconds=planning_s,
        )
