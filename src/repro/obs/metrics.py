"""Lightweight metrics: counters, wall-clock timers, histograms.

A :class:`MetricsRegistry` is a named bag of instruments shared by every
layer of one run.  Instruments are created on first use, accumulate in
plain Python attributes (no locks — a registry belongs to one process; the
process-pool evaluator aggregates worker-side numbers into the parent's
registry itself), and render to either a ``summary()`` dict or a
human-readable table.

The canonical instrument names every layer agrees on are declared as data
in :data:`CANONICAL_INSTRUMENTS` (and the derived headline metrics in
:data:`DERIVED_METRICS`); the rendered reference lives in
``docs/observability.md``, whose generated tables a docs-tier test keeps
in exact sync with these declarations.  See DESIGN.md §7 for the design
rationale.

Layers with several workers (the portfolio engine's islands, the
planning service's per-request registries) give each worker its *own*
registry and fold them into the parent's with
:meth:`MetricsRegistry.merge` at a join point, preserving the no-locks
rule.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "InstrumentSpec",
    "CANONICAL_INSTRUMENTS",
    "DERIVED_METRICS",
    "planner_summary",
    "soak_summary",
    "service_summary",
]


@dataclass(frozen=True)
class InstrumentSpec:
    """One canonical instrument: its name, kind and one-line meaning.

    ``kind`` is ``"counter"``, ``"timer"`` or ``"histogram"``; ``layer``
    names the subsystem that owns the instrument (``core``, ``grid``,
    ``scheduling``, ``exp``, ``soak``, ``service``) so reference tables can
    group related names.
    """

    name: str
    kind: str
    layer: str
    meaning: str


#: Every instrument name the planner stack ticks, as introspectable data.
#: ``docs/observability.md`` renders this tuple; ``tests/docs`` diffs the
#: rendered tables against it and greps the source tree so an instrument
#: cannot be added without being documented here.
CANONICAL_INSTRUMENTS: Tuple[InstrumentSpec, ...] = (
    # -- core GA engine -------------------------------------------------------
    InstrumentSpec("evals", "counter", "core", "individuals evaluated"),
    InstrumentSpec("eval_batch", "timer", "core", "wall time of whole-population evaluation calls"),
    InstrumentSpec("decode", "timer", "core", "genome decoding (serial evaluator, per batch)"),
    InstrumentSpec("fitness", "timer", "core", "fitness scoring (serial evaluator, per batch)"),
    InstrumentSpec("dispatch", "timer", "core", "parent-side wait on process-pool chunk results"),
    InstrumentSpec("worker_eval", "timer", "core", "in-worker chunk evaluation time (summed)"),
    InstrumentSpec("selection", "timer", "core", "parent selection per generation"),
    InstrumentSpec("variation", "timer", "core", "crossover + mutation per generation"),
    InstrumentSpec("decode_cache_hits", "counter", "core", "valid-operation decode-cache hits"),
    InstrumentSpec("decode_cache_misses", "counter", "core", "valid-operation decode-cache misses"),
    InstrumentSpec(
        "decode_cache_evictions", "counter", "core", "entries dropped by decode-cache resets"
    ),
    InstrumentSpec(
        "transition_cache_hits", "counter", "core", "transition-table hits (decode engine)"
    ),
    InstrumentSpec(
        "transition_cache_misses", "counter", "core", "transition-table misses (decode engine)"
    ),
    InstrumentSpec(
        "transition_cache_evictions", "counter", "core", "transition entries dropped by resets"
    ),
    InstrumentSpec(
        "evals_skipped", "counter", "core", "evaluations served from the service's fitness memo"
    ),
    InstrumentSpec(
        "genes_reused", "counter", "core", "genes satisfied from retained parent prefixes"
    ),
    InstrumentSpec(
        "decode_fallbacks", "counter", "core", "prefix resumes abandoned for a full decode"
    ),
    InstrumentSpec("memo_evictions", "counter", "core", "fitness-memo entries dropped by resets"),
    InstrumentSpec("vector_rows", "counter", "core", "population rows decoded by the vector path"),
    InstrumentSpec("vector_genes", "counter", "core", "genes consumed by the vector decode path"),
    InstrumentSpec("checkpoints_recovered", "counter", "core", "corrupt checkpoints skipped"),
    InstrumentSpec(
        "retries", "counter", "core", "fault-tolerant retry attempts (broker + evaluator)"
    ),
    InstrumentSpec(
        "degradations", "counter", "core", "resilient evaluators permanently degraded to serial"
    ),
    # -- portfolio engine -----------------------------------------------------
    InstrumentSpec(
        "portfolio_rounds", "counter", "core", "fork-join rounds driven by the portfolio engine"
    ),
    InstrumentSpec(
        "portfolio_migrants", "counter", "core", "individuals moved by portfolio migration edges"
    ),
    InstrumentSpec(
        "portfolio_boost_edges",
        "counter",
        "core",
        "extra leader-to-stagnant edges added by adaptive migration",
    ),
    InstrumentSpec(
        "islands_cancelled", "counter", "core", "islands stopped by first-solution cancellation"
    ),
    InstrumentSpec(
        "incumbent_improvements", "counter", "core", "portfolio-wide best-so-far improvements"
    ),
    InstrumentSpec(
        "island_velocity", "histogram", "core", "per-island per-round best-fitness deltas"
    ),
    # -- grid simulator + coordination ----------------------------------------
    InstrumentSpec("faults_injected", "counter", "grid", "fault-timeline events applied"),
    InstrumentSpec("replans", "counter", "grid", "coordination rounds triggered by grid changes"),
    InstrumentSpec(
        "placement_attempts", "counter", "grid", "broker placement attempts (incl. successes)"
    ),
    InstrumentSpec(
        "placement_backoff_s", "counter", "grid", "total simulated backoff accumulated by retries"
    ),
    InstrumentSpec("sim_tasks_done", "counter", "grid", "simulated activities completed"),
    InstrumentSpec("sim_tasks_failed", "counter", "grid", "simulated activities failed"),
    InstrumentSpec("sim_execute", "timer", "grid", "wall time of simulator execution calls"),
    InstrumentSpec("plan_latency", "timer", "grid", "wall time of coordination planning rounds"),
    # -- ETC scheduling study -------------------------------------------------
    InstrumentSpec("sched_evals", "counter", "scheduling", "GA task-mapper chromosomes evaluated"),
    InstrumentSpec(
        "sched_objective", "timer", "scheduling", "GA task-mapper objective evaluation time"
    ),
    # -- experiment orchestration ---------------------------------------------
    InstrumentSpec("trials_completed", "counter", "exp", "sweep trials recorded ok"),
    InstrumentSpec("trials_failed", "counter", "exp", "sweep trials that exhausted their retries"),
    InstrumentSpec("trials_skipped", "counter", "exp", "sweep trials skipped by resume"),
    InstrumentSpec("trial", "timer", "exp", "wall time per executed sweep trial"),
    # -- soak mode ------------------------------------------------------------
    InstrumentSpec("soak_requests", "counter", "soak", "workflow requests that arrived in a soak"),
    InstrumentSpec("soak_completed", "counter", "soak", "soak requests that delivered their goal"),
    InstrumentSpec(
        "soak_shed", "counter", "soak", "soak requests dropped by the degradation ladder"
    ),
    InstrumentSpec("soak_replans", "counter", "soak", "churn-triggered replanning rounds"),
    InstrumentSpec(
        "soak_repairs", "counter", "soak", "replans resolved by prefix repair (ladder rung 1)"
    ),
    InstrumentSpec(
        "soak_ga_replans", "counter", "soak", "replans resolved by a GA replan (warm or cold)"
    ),
    InstrumentSpec(
        "soak_greedy_fallbacks", "counter", "soak", "replans resolved by the greedy fallback rung"
    ),
    InstrumentSpec(
        "soak_soft_churn", "counter", "soak", "grid events that invalidated no in-flight plan"
    ),
    InstrumentSpec(
        "soak_deadline_met", "counter", "soak", "completed soak requests inside their deadline"
    ),
    InstrumentSpec(
        "replan_latency", "histogram", "soak", "wall-clock seconds per replanning round"
    ),
    InstrumentSpec(
        "request_duration", "histogram", "soak", "simulated seconds from arrival to completion"
    ),
    # -- planning service -----------------------------------------------------
    InstrumentSpec("service_requests", "counter", "service", "planning requests submitted"),
    InstrumentSpec("service_admitted", "counter", "service", "requests accepted into the queue"),
    InstrumentSpec(
        "service_shed", "counter", "service", "requests dropped (queue cap, deadline, cancel)"
    ),
    InstrumentSpec("service_completed", "counter", "service", "requests that returned a result"),
    InstrumentSpec("service_failed", "counter", "service", "requests that raised mid-run"),
    InstrumentSpec(
        "service_slices", "counter", "service", "tick-sized slices executed by the run scheduler"
    ),
    InstrumentSpec(
        "service_warm_hits", "counter", "service", "runs served a warm (domain, decoder) pair"
    ),
    InstrumentSpec(
        "service_warm_misses", "counter", "service", "runs that had to build a cold (domain, decoder) pair"
    ),
    InstrumentSpec(
        "service_cache_evictions", "counter", "service",
        "idle engine pairs evicted past the cache's cross-key cap",
    ),
    InstrumentSpec(
        "service_memo_evictions", "counter", "service",
        "retained trajectory fitness memos evicted past the cache's cap",
    ),
    InstrumentSpec(
        "service_latency", "histogram", "service", "wall seconds from submit to final frame"
    ),
    InstrumentSpec(
        "service_queue_wait", "histogram", "service", "wall seconds from submit to first slice"
    ),
)


#: Derived headline metrics computed by the ``*_summary`` helpers below —
#: names only ever appear in summaries, never as registry instruments.
DERIVED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("evals_per_sec", "individuals scored per second of evaluation wall time"),
    ("decode_cache_hit_rate", "valid-operation decode-cache hit fraction"),
    ("transition_cache_hit_rate", "transition-table hit fraction (decode engine)"),
    ("vector_genes_per_sec", "genes consumed per second by the vector decode path"),
    ("goal_completion_rate", "completed soak requests over completed + shed"),
    ("replan_latency_p50_ms", "median wall-clock replan latency (soak)"),
    ("replan_latency_p99_ms", "99th-percentile wall-clock replan latency (soak)"),
    ("service_shed_rate", "shed service requests over all submitted requests"),
    ("service_latency_p50_ms", "median wall-clock service request latency"),
    ("service_latency_p99_ms", "99th-percentile wall-clock service request latency"),
)


class Counter:
    """A monotonically growing integer/float count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n=1) -> None:
        """Increment the count by *n* (default 1)."""
        self.value += n


class Timer:
    """Accumulated wall-clock time with call count and min/max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float, count: int = 1) -> None:
        """Add one measurement of *seconds* covering *count* calls."""
        self.count += count
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @contextmanager
    def time(self):
        """Context manager recording the wall-clock time of its block."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.record(time.perf_counter() - t0)

    @property
    def mean(self) -> float:
        """Mean seconds per recorded call (0.0 before any record)."""
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Value distribution: count/sum/min/max plus a bounded sample.

    Keeps at most ``sample_size`` values (the earliest ones — enough for
    percentile estimates in tests and summaries without unbounded memory).
    """

    __slots__ = ("name", "count", "total", "min", "max", "sample_size", "_sample")

    def __init__(self, name: str, sample_size: int = 1024) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sample_size = sample_size
        self._sample: List[float] = []

    def observe(self, value: float) -> None:
        """Record one *value* into the distribution."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.sample_size:
            self._sample.append(value)

    @property
    def mean(self) -> float:
        """Mean of all observed values (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the sample."""
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]


class MetricsRegistry:
    """Named counters/timers/histograms, created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.timers: Dict[str, Timer] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def timer(self, name: str) -> Timer:
        """The timer called *name*, created on first use."""
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = Timer(name)
        return t

    def histogram(self, name: str, sample_size: int = 1024) -> Histogram:
        """The histogram called *name*, created on first use."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, sample_size)
        return h

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s instruments into this registry, name by name.

        Counters add, timers combine their accumulations, histograms
        concatenate (the bounded sample keeps the earliest values).  This
        is how per-island registries from portfolio islands reach the
        run-level registry; merging in a fixed island order keeps the
        result deterministic.
        """
        for name, counter in other.counters.items():
            self.counter(name).add(counter.value)
        for name, timer in other.timers.items():
            mine = self.timer(name)
            mine.count += timer.count
            mine.total += timer.total
            if timer.min < mine.min:
                mine.min = timer.min
            if timer.max > mine.max:
                mine.max = timer.max
        for name, hist in other.histograms.items():
            mine = self.histogram(name, sample_size=hist.sample_size)
            mine.count += hist.count
            mine.total += hist.total
            if hist.min < mine.min:
                mine.min = hist.min
            if hist.max > mine.max:
                mine.max = hist.max
            room = mine.sample_size - len(mine._sample)
            if room > 0:
                mine._sample.extend(hist._sample[:room])

    def summary(self) -> dict:
        """All instruments as one JSON-friendly dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "timers": {
                n: {"count": t.count, "total_s": t.total, "mean_s": t.mean}
                for n, t in sorted(self.timers.items())
            },
            "histograms": {
                n: {"count": h.count, "mean": h.mean, "min": h.min, "max": h.max}
                for n, h in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable metrics table."""
        lines = ["metrics:"]
        if self.counters:
            lines.append("  counters:")
            for name, c in sorted(self.counters.items()):
                lines.append(f"    {name:<24} {c.value}")
        if self.timers:
            lines.append("  timers:")
            for name, t in sorted(self.timers.items()):
                lines.append(
                    f"    {name:<24} total {t.total:9.4f}s  n {t.count:<8} mean {t.mean * 1e3:9.4f}ms"
                )
        if self.histograms:
            lines.append("  histograms:")
            for name, h in sorted(self.histograms.items()):
                lines.append(
                    f"    {name:<24} n {h.count:<8} mean {h.mean:9.4f}  "
                    f"min {h.min:9.4f}  max {h.max:9.4f}"
                )
        derived = {**planner_summary(self), **soak_summary(self), **service_summary(self)}
        if derived:
            lines.append("  derived:")
            for name, value in derived.items():
                lines.append(f"    {name:<24} {value}")
        return "\n".join(lines)


def planner_summary(metrics: Optional[MetricsRegistry]) -> dict:
    """Headline planner numbers derived from the canonical instruments.

    Returns ``evals_per_sec`` (individuals scored per second of evaluation
    wall time) plus ``decode_cache_hit_rate`` / ``transition_cache_hit_rate``
    when the underlying instruments recorded anything, and
    ``vector_genes_per_sec`` when the vectorised decode path ran; an empty
    dict otherwise.
    """
    if metrics is None:
        return {}
    out: dict = {}
    evals = metrics.counters.get("evals")
    batch = metrics.timers.get("eval_batch")
    if evals is not None and batch is not None and batch.total > 0:
        out["evals_per_sec"] = round(evals.value / batch.total, 1)
    for rate_name, hit_name, miss_name in (
        ("decode_cache_hit_rate", "decode_cache_hits", "decode_cache_misses"),
        ("transition_cache_hit_rate", "transition_cache_hits", "transition_cache_misses"),
    ):
        hits = metrics.counters.get(hit_name)
        misses = metrics.counters.get(miss_name)
        if hits is not None or misses is not None:
            h = hits.value if hits else 0
            m = misses.value if misses else 0
            if h + m:
                out[rate_name] = round(h / (h + m), 4)
    vgenes = metrics.counters.get("vector_genes")
    decode = metrics.timers.get("decode")
    if vgenes is not None and vgenes.value and decode is not None and decode.total > 0:
        out["vector_genes_per_sec"] = round(vgenes.value / decode.total, 1)
    return out


def soak_summary(metrics: Optional[MetricsRegistry]) -> dict:
    """Headline soak-mode numbers derived from the canonical instruments.

    Returns ``goal_completion_rate`` (completed requests over resolved
    requests, i.e. completed + shed) when the soak counters recorded
    anything, plus ``replan_latency_p50_ms`` / ``replan_latency_p99_ms``
    when churn triggered replans; an empty dict otherwise.
    """
    if metrics is None:
        return {}
    out: dict = {}
    completed = metrics.counters.get("soak_completed")
    shed = metrics.counters.get("soak_shed")
    done = completed.value if completed else 0
    lost = shed.value if shed else 0
    if done + lost:
        out["goal_completion_rate"] = round(done / (done + lost), 4)
    latency = metrics.histograms.get("replan_latency")
    if latency is not None and latency.count:
        out["replan_latency_p50_ms"] = round(latency.percentile(50) * 1e3, 3)
        out["replan_latency_p99_ms"] = round(latency.percentile(99) * 1e3, 3)
    return out


def service_summary(metrics: Optional[MetricsRegistry]) -> dict:
    """Headline planning-service numbers derived from the canonical instruments.

    Returns ``service_shed_rate`` (shed requests over all submitted requests)
    when the service counters recorded anything, plus
    ``service_latency_p50_ms`` / ``service_latency_p99_ms`` when any request
    completed; an empty dict otherwise.
    """
    if metrics is None:
        return {}
    out: dict = {}
    requests = metrics.counters.get("service_requests")
    shed = metrics.counters.get("service_shed")
    total = requests.value if requests else 0
    if total:
        out["service_shed_rate"] = round((shed.value if shed else 0) / total, 4)
    latency = metrics.histograms.get("service_latency")
    if latency is not None and latency.count:
        out["service_latency_p50_ms"] = round(latency.percentile(50) * 1e3, 3)
        out["service_latency_p99_ms"] = round(latency.percentile(99) * 1e3, 3)
    return out
