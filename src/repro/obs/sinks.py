"""Concrete sinks: JSONL traces, CSV summaries, memory recorder, progress.

All file-backed sinks accept either a path (parent directories are created,
file opened in append mode, closed on ``close()``) or an open text stream
(left open — the caller owns it).
"""

from __future__ import annotations

import csv
import json
import sys
from collections import deque
from pathlib import Path
from typing import IO, Callable, Deque, List, Optional, Union

from repro.obs.events import (
    EvaluationBatch,
    GenerationComplete,
    PhaseEnd,
    PhaseStart,
    PortfolioMigration,
    RunEvent,
    event_from_dict,
)
from repro.obs.tracer import Sink

__all__ = [
    "JsonlSink",
    "CsvSummarySink",
    "MemoryRecorder",
    "ProgressSink",
    "read_trace",
    "CSV_COLUMNS",
]

Target = Union[str, Path, IO[str]]


def _open_target(target: Target):
    """Return ``(stream, owned)`` for a path-or-stream target."""
    if isinstance(target, (str, Path)):
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "a"), True
    return target, False


class JsonlSink(Sink):
    """One JSON object per event, append-only, safe to ``tail -f``.

    *record_fn* maps an event to the dict actually written; the default is
    :meth:`RunEvent.to_dict`, whose output round-trips through
    :func:`~repro.obs.events.event_from_dict`.
    """

    def __init__(
        self,
        target: Target,
        flush_every: int = 1,
        record_fn: Optional[Callable[[RunEvent], dict]] = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.flush_every = flush_every
        self._record_fn = record_fn or (lambda event: event.to_dict())
        self._count = 0
        self._fh, self._owned = _open_target(target)

    def write(self, event: RunEvent) -> None:
        self._fh.write(json.dumps(self._record_fn(event)) + "\n")
        self._count += 1
        if self._count % self.flush_every == 0:
            self._fh.flush()

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owned:
            self._fh.close()


def read_trace(path: Union[str, Path], kind: Optional[str] = None) -> List[RunEvent]:
    """Parse a JSONL trace back into events, optionally filtered by kind."""
    events: List[RunEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = event_from_dict(json.loads(line))
            if kind is None or event.kind == kind:
                events.append(event)
    return events


#: Stable column order of the CSV summary (one row per generation event).
CSV_COLUMNS = (
    "scope",
    "generation",
    "best_total",
    "mean_total",
    "best_goal",
    "mean_goal",
    "mean_length",
    "solved_count",
)


class CsvSummarySink(Sink):
    """Per-generation CSV summary with a stable column set.

    Only :class:`GenerationComplete` events produce rows; everything else is
    ignored, so the sink can ride on the same tracer as a full JSONL trace.
    """

    def __init__(self, target: Target) -> None:
        self._fh, self._owned = _open_target(target)
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_COLUMNS)

    def write(self, event: RunEvent) -> None:
        if not isinstance(event, GenerationComplete):
            return
        record = event.to_dict()
        self._writer.writerow([record[column] for column in CSV_COLUMNS])

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owned:
            self._fh.close()


class MemoryRecorder(Sink):
    """Keep events in memory, in emission order — the test/bench sink.

    ``capacity`` bounds memory for long benchmark sessions: beyond it the
    oldest events are dropped (the total count is still tracked).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._events: Deque[RunEvent] = deque(maxlen=capacity)
        self.total_written = 0

    @property
    def events(self) -> List[RunEvent]:
        return list(self._events)

    def write(self, event: RunEvent) -> None:
        self._events.append(event)
        self.total_written += 1

    def of_kind(self, kind: str) -> List[RunEvent]:
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()
        self.total_written = 0

    def __len__(self) -> int:
        return len(self._events)


class ProgressSink(Sink):
    """Human-readable one-line-per-event progress reporting.

    Generation lines are throttled to every ``every``-th generation (plus
    any generation with solutions) to keep long runs readable.
    """

    def __init__(self, stream: Optional[IO[str]] = None, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._stream = stream if stream is not None else sys.stderr

    def write(self, event: RunEvent) -> None:
        line = self._format(event)
        if line is not None:
            self._stream.write(line + "\n")

    def _format(self, event: RunEvent) -> Optional[str]:
        prefix = f"[{event.scope}] " if event.scope else ""
        if isinstance(event, GenerationComplete):
            if event.generation % self.every and not event.solved_count:
                return None
            return (
                f"{prefix}gen {event.generation:>4}  "
                f"best {event.best_total:.4f}  mean {event.mean_total:.4f}  "
                f"len {event.mean_length:.1f}  solved {event.solved_count}"
            )
        if isinstance(event, PhaseStart):
            return f"{prefix}— phase {event.phase} —"
        if isinstance(event, PhaseEnd):
            status = "solved" if event.solved else f"goal {event.goal_fitness:.3f}"
            return (
                f"{prefix}phase {event.phase} done: {event.generations} generations, "
                f"+{event.plan_length} ops, {status}"
            )
        if isinstance(event, PortfolioMigration):
            return (
                f"{prefix}migration round {event.round_index}: island "
                f"{event.source} → {event.dest} ({event.migrants} migrants, "
                f"{event.reason})"
            )
        if isinstance(event, EvaluationBatch):
            return None  # too chatty for a progress feed
        return None

    def flush(self) -> None:
        self._stream.flush()
