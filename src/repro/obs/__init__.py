"""repro.obs — the observability layer: structured events + metrics.

The paper notes that "the fitness evaluation time has a significant impact
on the overall execution time of a GA"; this package is the instrument that
makes such statements measurable in this codebase.  Two orthogonal pieces:

- **Event stream** — every run layer (single-phase GA, multi-phase driver,
  island portfolio, evaluators, checkpointing, grid simulator, GA scheduler)
  emits typed :class:`RunEvent` objects through a :class:`Tracer` with
  pluggable sinks: :class:`JsonlSink` (append-only traces),
  :class:`CsvSummarySink` (stable per-generation columns),
  :class:`MemoryRecorder` (tests/benchmarks), :class:`ProgressSink`
  (human-readable feed).

- **Metrics** — a :class:`MetricsRegistry` of counters/timers/histograms
  wrapped around the hot paths (decode, fitness, selection/variation,
  process-pool chunk dispatch) plus :func:`planner_summary` for the
  headline numbers (evals/sec, decode-cache hit rate).

Instrumented constructors take explicit ``tracer=`` / ``metrics=``
arguments and fall back to the ambient pair installed by :func:`observe`
— which is how the CLI's ``--trace/--metrics/--progress`` flags reach every
subcommand without threading parameters through the analysis drivers.
"""

from repro.obs.events import (
    EVENT_KINDS,
    CheckpointRecovered,
    CheckpointWrite,
    DecodeCacheSnapshot,
    EvaluationBatch,
    EvaluatorDegraded,
    FaultInjected,
    GenerationComplete,
    IncumbentImproved,
    IslandVelocity,
    PhaseEnd,
    PhaseStart,
    PortfolioCancelled,
    PortfolioMigration,
    ReplanTriggered,
    RetryAttempt,
    ReplanLatency,
    RequestArrived,
    RequestCompleted,
    RequestShed,
    RunEvent,
    SchedulerGeneration,
    ServiceAdmitted,
    ServiceCompleted,
    ServiceShed,
    ServiceSlice,
    SimulationComplete,
    SweepProgress,
    TrialFinished,
    TrialStarted,
    event_from_dict,
)
from repro.obs.metrics import (
    CANONICAL_INSTRUMENTS,
    DERIVED_METRICS,
    Counter,
    Histogram,
    InstrumentSpec,
    MetricsRegistry,
    Timer,
    planner_summary,
    service_summary,
    soak_summary,
)
from repro.obs.reference import (
    render_derived_table,
    render_event_table,
    render_instrument_table,
)
from repro.obs.sinks import (
    CSV_COLUMNS,
    CsvSummarySink,
    JsonlSink,
    MemoryRecorder,
    ProgressSink,
    read_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Sink,
    Tracer,
    default_metrics,
    default_tracer,
    observe,
)

__all__ = [
    "CANONICAL_INSTRUMENTS",
    "CSV_COLUMNS",
    "CheckpointRecovered",
    "CheckpointWrite",
    "Counter",
    "CsvSummarySink",
    "DERIVED_METRICS",
    "DecodeCacheSnapshot",
    "EVENT_KINDS",
    "EvaluationBatch",
    "EvaluatorDegraded",
    "FaultInjected",
    "GenerationComplete",
    "Histogram",
    "IncumbentImproved",
    "InstrumentSpec",
    "IslandVelocity",
    "JsonlSink",
    "MemoryRecorder",
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseEnd",
    "PhaseStart",
    "PortfolioCancelled",
    "PortfolioMigration",
    "ProgressSink",
    "ReplanLatency",
    "ReplanTriggered",
    "RequestArrived",
    "RequestCompleted",
    "RequestShed",
    "RetryAttempt",
    "RunEvent",
    "SchedulerGeneration",
    "ServiceAdmitted",
    "ServiceCompleted",
    "ServiceShed",
    "ServiceSlice",
    "SimulationComplete",
    "Sink",
    "SweepProgress",
    "Timer",
    "Tracer",
    "TrialFinished",
    "TrialStarted",
    "default_metrics",
    "default_tracer",
    "event_from_dict",
    "observe",
    "planner_summary",
    "read_trace",
    "render_derived_table",
    "render_event_table",
    "render_instrument_table",
    "service_summary",
    "soak_summary",
]
