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

Every name loads with the module that defines it, on first access
(:mod:`repro._lazy`): a GA run loads events, metrics and the tracer, and
no sink until it installs one.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "CheckpointRecovered": "events",
    "CheckpointWrite": "events",
    "DecodeCacheSnapshot": "events",
    "EVENT_KINDS": "events",
    "EvaluationBatch": "events",
    "EvaluatorDegraded": "events",
    "FaultInjected": "events",
    "GenerationComplete": "events",
    "IncumbentImproved": "events",
    "IslandVelocity": "events",
    "PhaseEnd": "events",
    "PhaseStart": "events",
    "PortfolioCancelled": "events",
    "PortfolioMigration": "events",
    "ReplanLatency": "events",
    "ReplanTriggered": "events",
    "RequestArrived": "events",
    "RequestCompleted": "events",
    "RequestShed": "events",
    "RetryAttempt": "events",
    "RunEvent": "events",
    "SchedulerGeneration": "events",
    "ServiceAdmitted": "events",
    "ServiceCompleted": "events",
    "ServiceShed": "events",
    "ServiceSlice": "events",
    "SimulationComplete": "events",
    "SweepProgress": "events",
    "TrialFinished": "events",
    "TrialStarted": "events",
    "canonical_events": "events",
    "event_from_dict": "events",
    "CANONICAL_INSTRUMENTS": "metrics",
    "Counter": "metrics",
    "DERIVED_METRICS": "metrics",
    "Histogram": "metrics",
    "InstrumentSpec": "metrics",
    "MetricsRegistry": "metrics",
    "Timer": "metrics",
    "planner_summary": "metrics",
    "service_summary": "metrics",
    "soak_summary": "metrics",
    "render_derived_table": "reference",
    "render_event_table": "reference",
    "render_instrument_table": "reference",
    "CSV_COLUMNS": "sinks",
    "CsvSummarySink": "sinks",
    "JsonlSink": "sinks",
    "MemoryRecorder": "sinks",
    "ProgressSink": "sinks",
    "read_trace": "sinks",
    "NULL_TRACER": "tracer",
    "Sink": "tracer",
    "Tracer": "tracer",
    "default_metrics": "tracer",
    "default_tracer": "tracer",
    "observe": "tracer",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
