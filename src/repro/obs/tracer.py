"""The Tracer: fan events out to pluggable sinks, plus ambient defaults.

A :class:`Tracer` owns an ordered list of sinks and forwards every emitted
:class:`~repro.obs.events.RunEvent` to each of them.  ``NULL_TRACER`` (a
tracer with no sinks) is the universal "tracing off" value: ``emit`` on it
is a no-op and ``enabled`` is False, so hot paths can skip event
construction entirely.

Ambient defaults
----------------
Deep call stacks (the analysis drivers regenerate whole paper tables
through many layers) would need a ``tracer=`` parameter on every function
to be observable.  Instead the module keeps a process-wide default
tracer/metrics pair, installed with the :func:`observe` context manager;
instrumented constructors (``GARun``, ``GridSimulator``, ``ga_schedule``,
…) fall back to the ambient pair whenever no explicit one is passed.  This
is the same shape as :mod:`logging`'s root logger: explicit wiring wins,
ambient state covers everything else.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, List, Optional

from repro.obs.events import RunEvent
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Sink",
    "Tracer",
    "NULL_TRACER",
    "observe",
    "default_tracer",
    "default_metrics",
]


class Sink:
    """Receives events from a tracer.  Subclasses override :meth:`write`."""

    def write(self, event: RunEvent) -> None:  # pragma: no cover - interface
        """Handle one emitted event."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output downstream (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink must not be written to afterwards."""


class Tracer:
    """Emit events to zero or more sinks.

    The empty tracer is falsy-cheap: ``enabled`` is False and emitters are
    expected to guard event construction behind it.
    """

    __slots__ = ("sinks",)

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks: List[Sink] = list(sinks)

    @property
    def enabled(self) -> bool:
        """Whether any sink is attached (guard event construction on this)."""
        return bool(self.sinks)

    def emit(self, event: RunEvent) -> None:
        """Forward *event* to every attached sink, in order."""
        for sink in self.sinks:
            sink.write(event)

    def flush(self) -> None:
        """Flush every attached sink."""
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        """Support ``with Tracer(...) as tracer`` for scoped sink lifetime."""
        return self

    def __exit__(self, *exc) -> None:
        """Close every sink when the ``with`` block exits."""
        self.close()


NULL_TRACER = Tracer()

_ambient_tracer: Tracer = NULL_TRACER
_ambient_metrics: Optional[MetricsRegistry] = None


def default_tracer() -> Tracer:
    """The ambient tracer (``NULL_TRACER`` unless :func:`observe` is active)."""
    return _ambient_tracer


def default_metrics() -> Optional[MetricsRegistry]:
    """The ambient metrics registry, or ``None``."""
    return _ambient_metrics


@contextmanager
def observe(tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None):
    """Install *tracer*/*metrics* as the ambient pair for the block.

    Nested ``observe`` blocks stack; leaving a block restores the previous
    pair.  ``None`` leaves the corresponding slot unchanged, so metrics can
    be added without disturbing an outer tracer (and vice versa).
    """
    global _ambient_tracer, _ambient_metrics
    prev = (_ambient_tracer, _ambient_metrics)
    if tracer is not None:
        _ambient_tracer = tracer
    if metrics is not None:
        _ambient_metrics = metrics
    try:
        yield (_ambient_tracer, _ambient_metrics)
    finally:
        _ambient_tracer, _ambient_metrics = prev
