"""Structured run events: the vocabulary of the observability layer.

Every significant thing that happens during a planning run — a generation
finishing, a phase starting, islands migrating, an evaluation batch being
dispatched, a decode cache being interrogated, a checkpoint hitting disk —
is one immutable :class:`RunEvent`.  Events are plain frozen dataclasses
with JSON-friendly payloads, so every sink (JSONL, CSV, memory, progress)
consumes the same objects and traces parse back losslessly via
:func:`event_from_dict`.

Events carry a ``scope`` string identifying which sub-run emitted them
(``"phase-2"``, ``"island-0"``, ``"scheduler"``, …); a plain single-phase
run uses the empty scope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, ClassVar, Dict, Type

if TYPE_CHECKING:  # import at runtime would cycle: repro.core imports repro.obs
    from repro.core.stats import GenerationStats

__all__ = [
    "RunEvent",
    "GenerationComplete",
    "PhaseStart",
    "PhaseEnd",
    "IslandVelocity",
    "PortfolioMigration",
    "PortfolioCancelled",
    "IncumbentImproved",
    "EvaluationBatch",
    "DecodeCacheSnapshot",
    "CheckpointWrite",
    "CheckpointRecovered",
    "SchedulerGeneration",
    "SimulationComplete",
    "FaultInjected",
    "RetryAttempt",
    "EvaluatorDegraded",
    "ReplanTriggered",
    "RequestArrived",
    "RequestCompleted",
    "RequestShed",
    "ReplanLatency",
    "ServiceAdmitted",
    "ServiceShed",
    "ServiceSlice",
    "ServiceCompleted",
    "TrialStarted",
    "TrialFinished",
    "SweepProgress",
    "EVENT_KINDS",
    "event_from_dict",
]


@dataclass(frozen=True, kw_only=True)
class RunEvent:
    """Base class for all observability events.

    ``kind`` is the stable wire name of the event type (a class attribute,
    not a payload field); ``scope`` names the emitting sub-run.
    """

    kind: ClassVar[str] = "event"
    scope: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable payload, ``kind`` included."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True, kw_only=True)
class GenerationComplete(RunEvent):
    """One generation was evaluated (emitted before breeding the next)."""

    kind: ClassVar[str] = "generation"
    generation: int
    best_total: float
    mean_total: float
    best_goal: float
    mean_goal: float
    mean_length: float
    solved_count: int

    @classmethod
    def from_stats(cls, stats: "GenerationStats", scope: str = "") -> "GenerationComplete":
        return cls(
            scope=scope,
            generation=stats.generation,
            best_total=stats.best_total,
            mean_total=stats.mean_total,
            best_goal=stats.best_goal,
            mean_goal=stats.mean_goal,
            mean_length=stats.mean_length,
            solved_count=stats.solved_count,
        )


@dataclass(frozen=True, kw_only=True)
class PhaseStart(RunEvent):
    """A multi-phase driver is starting phase ``phase`` (1-based)."""

    kind: ClassVar[str] = "phase-start"
    phase: int


@dataclass(frozen=True, kw_only=True)
class PhaseEnd(RunEvent):
    """A phase finished; payload summarises its contribution."""

    kind: ClassVar[str] = "phase-end"
    phase: int
    generations: int
    plan_length: int
    goal_fitness: float
    solved: bool


@dataclass(frozen=True, kw_only=True)
class IslandVelocity(RunEvent):
    """One portfolio island's improvement velocity over the last round.

    ``velocity`` is the change in the island's best total fitness across
    the round; ``stagnation`` counts consecutive rounds with no measurable
    improvement (the adaptive-migration controller's steering signal).
    """

    kind: ClassVar[str] = "island-velocity"
    round_index: int
    island: int
    strategy: str
    velocity: float
    best_total: float
    stagnation: int


@dataclass(frozen=True, kw_only=True)
class PortfolioMigration(RunEvent):
    """One directed migration edge executed by the portfolio controller.

    ``reason`` is ``"ring"`` for the baseline ring edge or ``"boost"`` for
    an extra leader→stagnant-island edge added by the adaptive controller.
    """

    kind: ClassVar[str] = "portfolio-migration"
    round_index: int
    source: int
    dest: int
    migrants: int
    reason: str


@dataclass(frozen=True, kw_only=True)
class PortfolioCancelled(RunEvent):
    """First-solution cancellation fired: the race has a winner.

    ``tick`` is the winner's logical tick at its first solution;
    ``cancelled`` counts the islands stopped before exhausting their own
    budgets (after any grace window).
    """

    kind: ClassVar[str] = "portfolio-cancelled"
    winner: int
    strategy: str
    tick: int
    cancelled: int


@dataclass(frozen=True, kw_only=True)
class IncumbentImproved(RunEvent):
    """The portfolio-wide best-so-far plan improved (anytime API).

    Deliberately excludes wall-clock time so serial replay produces a
    byte-identical event log; wall times live on the
    :class:`~repro.core.portfolio.Incumbent` records in the result.
    """

    kind: ClassVar[str] = "incumbent"
    island: int
    strategy: str
    tick: int
    goal_fitness: float
    cost_fitness: float
    plan_length: int
    solved: bool


@dataclass(frozen=True, kw_only=True)
class EvaluationBatch(RunEvent):
    """An evaluator scored a batch of pending individuals."""

    kind: ClassVar[str] = "evaluation-batch"
    n_evaluated: int
    seconds: float
    mode: str  # "serial" | "process"
    chunks: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    evals_skipped: int = 0  # service fitness-memo hits (no decode ran)
    genes_reused: int = 0  # genes satisfied from a retained parent prefix


@dataclass(frozen=True, kw_only=True)
class DecodeCacheSnapshot(RunEvent):
    """Cumulative decode-cache statistics at a point in time."""

    kind: ClassVar[str] = "decode-cache"
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, kw_only=True)
class CheckpointWrite(RunEvent):
    """A run checkpoint was persisted to disk."""

    kind: ClassVar[str] = "checkpoint"
    path: str
    generation: int


@dataclass(frozen=True, kw_only=True)
class CheckpointRecovered(RunEvent):
    """A corrupted latest checkpoint was skipped for an older good one.

    ``path`` is the checkpoint actually loaded; ``skipped`` counts the newer
    files that failed validation (truncated, bad checksum, wrong version).
    """

    kind: ClassVar[str] = "checkpoint-recovered"
    path: str
    generation: int
    skipped: int


@dataclass(frozen=True, kw_only=True)
class FaultInjected(RunEvent):
    """A fault from the injected timeline was applied to the grid.

    ``fault`` is the grid-event kind (``fail``, ``restore``, ``load``,
    ``link-degrade``, ``partition``, ``link-restore``); ``target`` names the
    machine, or ``"siteA--siteB"`` for link faults; ``at`` is simulated time.
    """

    kind: ClassVar[str] = "fault-injected"
    at: float
    fault: str
    target: str
    value: float = 0.0


@dataclass(frozen=True, kw_only=True)
class RetryAttempt(RunEvent):
    """A fault-tolerant component retried after a failure.

    ``component`` is ``"broker"`` (placement moved to the next-best offer)
    or ``"evaluator"`` (worker-pool batch retried after crash/timeout).
    """

    kind: ClassVar[str] = "retry"
    component: str
    attempt: int
    backoff_s: float
    reason: str


@dataclass(frozen=True, kw_only=True)
class EvaluatorDegraded(RunEvent):
    """A resilient evaluator gave up on its pool and fell back to serial."""

    kind: ClassVar[str] = "evaluator-degraded"
    failures: int
    reason: str


@dataclass(frozen=True, kw_only=True)
class ReplanTriggered(RunEvent):
    """Execution aborted on a grid change; the coordinator is replanning.

    ``at`` is the simulated abort time on the coordinator's global clock and
    ``completed`` the number of activities that survived from the attempt —
    the observed state the next planning round restarts from.
    """

    kind: ClassVar[str] = "replan"
    round_index: int
    at: float
    completed: int
    reason: str


@dataclass(frozen=True, kw_only=True)
class RequestArrived(RunEvent):
    """A workflow request entered the soak loop and was planned (or not).

    ``at`` is simulated arrival time; ``plan_length`` is 0 when no initial
    plan was found (the request is shed immediately); ``estimate`` is the
    estimated completion time (simulated clock) of the admitted plan.
    """

    kind: ClassVar[str] = "request-arrived"
    request_id: int
    at: float
    plan_length: int
    estimate: float


@dataclass(frozen=True, kw_only=True)
class RequestCompleted(RunEvent):
    """A soak request delivered its goal.

    ``duration`` is simulated time from arrival to completion; ``replans``
    counts the churn-triggered replanning rounds the request survived.
    """

    kind: ClassVar[str] = "request-completed"
    request_id: int
    at: float
    duration: float
    replans: int
    deadline_met: bool


@dataclass(frozen=True, kw_only=True)
class RequestShed(RunEvent):
    """The degradation ladder gave up on a soak request.

    ``reason`` is one of ``unplannable`` (no initial plan), ``no-plan``
    (every ladder rung failed after churn), ``deadline`` (best replan
    estimate missed the request's deadline), ``replan-budget`` (too many
    churn-triggered replans) or ``execution-failed``.
    """

    kind: ClassVar[str] = "request-shed"
    request_id: int
    at: float
    reason: str
    replans: int


@dataclass(frozen=True, kw_only=True)
class ReplanLatency(RunEvent):
    """One churn-triggered replanning round finished for a soak request.

    ``rung`` names the degradation-ladder step that produced the plan
    (``repair``, ``ga-warm``, ``greedy``) or ``none`` when
    every rung failed; ``reused``/``repaired`` count operations kept from
    the damaged plan vs newly planned; ``seconds`` is *wall-clock* replan
    latency (the one field excluded from determinism comparisons).
    """

    kind: ClassVar[str] = "replan-latency"
    request_id: int
    at: float
    rung: str
    reused: int
    repaired: int
    plan_length: int
    seconds: float


@dataclass(frozen=True, kw_only=True)
class ServiceAdmitted(RunEvent):
    """The planning service accepted a request into its run queue.

    ``queue_depth`` is the number of queued-or-running requests *after*
    admission (the admission-control signal the next arrival is judged
    against); ``tenant`` is the fair-share accounting key.
    """

    kind: ClassVar[str] = "service-admitted"
    request_id: int
    tenant: str
    domain_hash: str
    queue_depth: int


@dataclass(frozen=True, kw_only=True)
class ServiceShed(RunEvent):
    """Admission control or deadline policy dropped a service request.

    ``reason`` is one of ``queue-full`` (the 429 analogue: queue cap hit at
    submit time), ``deadline-queued`` (the deadline expired before the
    first slice ran), ``cancelled`` (the client disconnected before
    completion) or ``failed`` (the run raised; details in the error frame).
    """

    kind: ClassVar[str] = "service-shed"
    request_id: int
    tenant: str
    reason: str
    queue_depth: int


@dataclass(frozen=True, kw_only=True)
class ServiceSlice(RunEvent):
    """The run scheduler executed one tick-sized slice of a request.

    ``generations`` counts generations evolved in this slice (portfolio
    requests run as a single slice and report their total tick count);
    ``done`` marks the slice that finished the request.
    """

    kind: ClassVar[str] = "service-slice"
    request_id: int
    tenant: str
    slice_index: int
    generations: int
    done: bool


@dataclass(frozen=True, kw_only=True)
class ServiceCompleted(RunEvent):
    """A service request produced its final result frame.

    ``timed_out`` marks anytime completions: the deadline expired while the
    request was running, so the best-so-far plan was returned instead of
    planning to the full budget.  ``seconds`` is wall-clock time from
    arrival to completion (excluded from determinism comparisons, like
    every wall-clock payload).
    """

    kind: ClassVar[str] = "service-completed"
    request_id: int
    tenant: str
    solved: bool
    timed_out: bool
    generations: int
    plan_length: int
    slices: int
    seconds: float


@dataclass(frozen=True, kw_only=True)
class SchedulerGeneration(RunEvent):
    """One generation of the GA task mapper (makespan objective)."""

    kind: ClassVar[str] = "scheduler-generation"
    generation: int
    best_makespan: float
    mean_objective: float


@dataclass(frozen=True, kw_only=True)
class SimulationComplete(RunEvent):
    """A grid simulation finished executing an activity graph."""

    kind: ClassVar[str] = "sim-complete"
    makespan: float
    tasks_done: int
    tasks_failed: int
    success: bool
    seconds: float


@dataclass(frozen=True, kw_only=True)
class TrialStarted(RunEvent):
    """A sweep runner dispatched one experiment trial."""

    kind: ClassVar[str] = "trial-started"
    experiment: str
    trial_id: str
    seed: int


@dataclass(frozen=True, kw_only=True)
class TrialFinished(RunEvent):
    """One experiment trial completed (``status`` is ``ok`` or ``failed``).

    ``attempt`` is the 1-based attempt that produced the result (> 1 when
    the runner's retry ladder re-dispatched the trial).
    """

    kind: ClassVar[str] = "trial-finished"
    experiment: str
    trial_id: str
    seed: int
    status: str
    seconds: float
    attempt: int = 1


@dataclass(frozen=True, kw_only=True)
class SweepProgress(RunEvent):
    """Sweep-level progress: counts over the full trial enumeration."""

    kind: ClassVar[str] = "sweep-progress"
    experiment: str
    done: int
    failed: int
    total: int


EVENT_KINDS: Dict[str, Type[RunEvent]] = {
    cls.kind: cls
    for cls in (
        GenerationComplete,
        PhaseStart,
        PhaseEnd,
        IslandVelocity,
        PortfolioMigration,
        PortfolioCancelled,
        IncumbentImproved,
        EvaluationBatch,
        DecodeCacheSnapshot,
        CheckpointWrite,
        CheckpointRecovered,
        SchedulerGeneration,
        SimulationComplete,
        FaultInjected,
        RetryAttempt,
        EvaluatorDegraded,
        ReplanTriggered,
        RequestArrived,
        RequestCompleted,
        RequestShed,
        ReplanLatency,
        ServiceAdmitted,
        ServiceShed,
        ServiceSlice,
        ServiceCompleted,
        TrialStarted,
        TrialFinished,
        SweepProgress,
    )
}


def event_from_dict(record: dict) -> RunEvent:
    """Inverse of :meth:`RunEvent.to_dict`.

    Unknown payload keys are ignored (forward compatibility: newer traces
    stay readable by older code); an unknown ``kind`` raises ``ValueError``.
    """
    kind = record.get("kind")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    known = {f.name for f in fields(cls)}
    payload = {k: v for k, v in record.items() if k in known}
    return cls(**payload)
