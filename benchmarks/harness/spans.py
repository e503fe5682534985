"""Bench-side span recording around the program's public layer functions.

A traced run patches a fixed table of public callables (``GARun.step``,
``SerialEvaluator.evaluate_buffer``, ``RunScheduler.step``, ...) with
wrappers that record one span per call: name, layer, start, end, parent
span, thread, workload, run id and request id.  Spans stay in memory and
are written as JSON lines when the run ends.  The program's code is never
edited; a function that no longer exists is skipped and logged, so a
later change that deletes a layer does not have to touch the benchmark.

Layer names come from the wrapped function's module (``repro.`` stripped),
and metric names are templates over that layer, so the tables below name
classes and functions, not module paths.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Set, Tuple

_MISSING = object()


@dataclass
class Span:
    """One recorded call; times are ``perf_counter_ns`` values."""

    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: int
    end: int
    thread: int
    request: Optional[str] = None
    units: Optional[float] = None
    label: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass(frozen=True)
class Wrap:
    """One patch, ``owner.attr``, plus the per-layer metrics it feeds.

    ``share`` names the metric holding the wrapped calls' summed duration
    over the measured wall time; ``per_unit`` names the mean microseconds
    per unit of work, where ``units`` reads the unit count off the call's
    result (one unit per call when absent).  ``label`` tags the span from
    the result (e.g. the replan rung) and ``request`` reads a request id
    from the call's arguments; child spans inherit it.
    """

    owner: object
    attr: str
    share: Optional[str] = None
    per_unit: Optional[str] = None
    units: Optional[Callable] = None
    label: Optional[Callable] = None
    request: Optional[Callable] = None


def layer_of(fn) -> str:
    """The layer a function belongs to: its module, ``repro.`` stripped."""
    module = getattr(fn, "__module__", None) or "unknown"
    return module[len("repro."):] if module.startswith("repro.") else module


@dataclass
class SpanRecorder:
    """In-memory span sink shared by every wrapper of one traced run."""

    workload: str
    run_id: str
    spans: List[Span] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: metric name -> (kind, span names feeding it); kind is share/per_unit.
    metrics: Dict[str, Tuple[str, Set[str]]] = field(default_factory=dict)
    #: ``(start_ns, end_ns)`` of each measured stretch; spans outside them
    #: (set-up, warm-up, correctness checks) are kept but not analysed.
    windows: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, fn, args, kwargs, name: str, layer: str, spec: Optional[Wrap] = None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        stack = self._stack()
        parent, request = stack[-1] if stack else (None, None)
        if spec is not None and spec.request is not None:
            request = spec.request(args) or request
        sid = next(self._ids)
        stack.append((sid, request))
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
        span = Span(sid, parent, name, layer, start, end, threading.get_ident(), request)
        if spec is not None and spec.units is not None:
            span.units = float(spec.units(result))
        if spec is not None and spec.label is not None:
            span.label = str(spec.label(result))
        self.spans.append(span)
        return result

    def wrap(self, spec: Wrap) -> bool:
        """Patch ``spec.owner.spec.attr``; log and skip it when it is gone."""
        owner, attr = spec.owner, spec.attr
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            where = getattr(owner, "__name__", "<missing>")
            self.skipped.append(f"{where}.{attr}")
            print(f"[trace] skipped {where}.{attr}: not found", file=sys.stderr)
            return False
        layer = layer_of(fn)
        name = f"{layer}:{getattr(fn, '__qualname__', attr)}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(fn, args, kwargs, name, layer, spec)

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)
        for kind, template in (("share", spec.share), ("per_unit", spec.per_unit)):
            if template:
                self.metrics.setdefault(template.format(layer=layer), (kind, set()))[1].add(name)
        return True

    def install(self, specs: List[Wrap]) -> "SpanRecorder":
        for spec in specs:
            self.wrap(spec)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def named(self, suffix: str) -> List[Span]:
        """Spans whose qualified function name ends with *suffix*."""
        return [s for s in self.spans if s.name.endswith(suffix)]

    def measured(self, spans: Optional[List[Span]] = None) -> List[Span]:
        """*spans* (default: all) that started inside a measured window."""
        spans = self.spans if spans is None else spans
        return [s for s in spans if any(a <= s.start < b for a, b in self.windows)]

    def layer_metrics(self, window_ms: float) -> Dict[str, float]:
        """Every ``share`` and ``per_unit`` metric of the installed wraps."""
        out: Dict[str, float] = {}
        measured = self.measured()
        for metric, (kind, names) in self.metrics.items():
            spans = [s for s in measured if s.name in names]
            total_ms = sum(s.ms for s in spans)
            if kind == "share":
                out[metric] = total_ms / window_ms if window_ms else 0.0
            else:
                units = sum(1.0 if s.units is None else s.units for s in spans)
                out[metric] = total_ms * 1e3 / units if units else 0.0
        return out

    def self_ms(self) -> Dict[int, float]:
        """Span id -> self time: duration minus its direct children's."""
        child: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.ms
        return {s.id: max(0.0, s.ms - child.get(s.id, 0.0)) for s in self.spans}

    def to_records(self) -> List[dict]:
        return [
            {
                "id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                "start_ns": s.start, "end_ns": s.end, "thread": s.thread,
                "workload": self.workload, "run": self.run_id, "request": s.request,
                "units": s.units, "label": s.label,
            }
            for s in self.spans
        ]

    @classmethod
    def from_records(cls, workload: str, run_id: str, records: List[dict]) -> "SpanRecorder":
        recorder = cls(workload, run_id)
        recorder.spans = [
            Span(r["id"], r["parent"], r["name"], r["layer"], r["start_ns"], r["end_ns"],
                 r["thread"], r.get("request"), r.get("units"), r.get("label"))
            for r in records
        ]
        return recorder

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.to_records():
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _scope_request(args) -> Optional[str]:
    """Request id of a service GA run, from ``GARun.scope`` (``req-<id>``)."""
    scope = getattr(args[0], "scope", "") if args else ""
    return scope[4:] if scope.startswith("req-") else None


def planner_wraps() -> List[Wrap]:
    """The in-process planner layers: GA, breeding, evaluation, decode,
    resumable search, and the soak loop.  Functions imported by name into
    a caller's module are patched in the caller's namespace."""
    import repro.core.ga as ga
    import repro.core.parallel as parallel
    import repro.grid.simulator as simulator
    import repro.planning.search.resumable as resumable
    import repro.soak.controller as controller
    import repro.soak.runner as runner

    return [
        Wrap(ga.GARun, "step", request=_scope_request),
        Wrap(ga, "select_parent_indices", share="{layer}.select_share"),
        Wrap(ga, "breed", share="{layer}.breed_share"),
        Wrap(parallel.SerialEvaluator, "evaluate_buffer", share="{layer}.evaluate_share"),
        Wrap(parallel.ProcessPoolEvaluator, "evaluate_buffer", share="{layer}.evaluate_share"),
        Wrap(parallel.EvaluationContext, "decode_genes", share="{layer}.parent_decode_share"),
        Wrap(getattr(parallel, "VectorDecoder", None), "evaluate_pending",
             share="{layer}.share", per_unit="{layer}.us_per_row", units=lambda n: n),
        Wrap(getattr(parallel, "DecodeEngine", None), "decode",
             share="{layer}.share", per_unit="{layer}.us_per_call"),
        Wrap(resumable.ResumableSearch, "step"),
        Wrap(controller.ReplanController, "replan", label=lambda d: d.rung),
        Wrap(controller, "relaxed_feasible", share="{layer}.relaxed_feasible_share"),
        Wrap(controller, "reuse_plan"),
        Wrap(simulator.GridSimulator, "execute", share="{layer}.execute_share"),
        Wrap(runner.SoakRunner, "run"),
    ]


def service_wraps() -> List[Wrap]:
    """Server-side layers: admission, slicing, engine leases and frames."""
    import repro.service.cache as cache
    import repro.service.scheduler as scheduler
    import repro.service.server as server

    return [
        Wrap(scheduler.RunScheduler, "submit"),
        Wrap(scheduler.RunScheduler, "step", units=bool),
        Wrap(cache.EngineCache, "lease", per_unit="{layer}.lease_us"),
        Wrap(server, "encode_frame", per_unit="{layer}.frame_us"),
        Wrap(server, "decode_frame", per_unit="{layer}.frame_us"),
    ]
