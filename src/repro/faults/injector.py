"""Deterministic fault injection: spec + seed → reproducible fault plan.

The paper's premise is a *dynamic, unreliable* grid — "resources may join
or leave at will" — so every execution path that claims fault tolerance
needs an adversary to prove itself against.  :class:`FaultInjector` is that
adversary: given a parsed :class:`~repro.faults.spec.FaultSpec` and a seed,
it materialises a :class:`FaultPlan` whose grid-event timeline and
execution-fault directives are a pure function of ``(spec, seed,
topology, horizon)``.  Two runs with the same inputs see byte-identical
fault timelines, which is what makes chaos runs assertable in tests and
comparable across optimisation PRs.

Determinism discipline: machines and links are visited in sorted order and
every random draw goes through one :func:`repro.core.rng.make_rng` stream,
so adding a clause never perturbs the draws of clauses before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.rng import make_rng
from repro.faults.spec import FaultClause, FaultSpec, parse_fault_spec
from repro.grid.resources import GridTopology
from repro.grid.simulator import GridEvent

__all__ = ["FaultPlan", "FaultInjector"]


@dataclass(frozen=True)
class FaultPlan:
    """A materialised, fully deterministic fault plan for one run.

    ``grid_events`` feed :class:`~repro.grid.simulator.GridSimulator` /
    :class:`~repro.grid.coordination.CoordinationService`; the remaining
    fields configure :class:`~repro.core.resilient.ResilientEvaluator`
    (``worker_crashes`` pool kills, ``worker_hangs`` stuck workers of
    ``hang_seconds`` each, and an optional per-batch evaluation timeout).
    """

    spec: str
    seed: int
    grid_events: Tuple[GridEvent, ...] = ()
    worker_crashes: int = 0
    worker_hangs: int = 0
    hang_seconds: float = 30.0
    eval_timeout_s: Optional[float] = None

    def describe(self) -> str:
        """Human-readable timeline, one fault per line."""
        lines = [f"fault plan (spec={self.spec!r}, seed={self.seed})"]
        for ev in self.grid_events:
            target = ev.machine if not ev.peer else f"{ev.machine}--{ev.peer}"
            extra = f" value={ev.value:g}" if ev.kind in ("load", "link-degrade") else ""
            lines.append(f"  t={ev.time:8.2f}  {ev.kind:<12} {target}{extra}")
        if self.worker_crashes:
            lines.append(f"  worker crashes: {self.worker_crashes}")
        if self.worker_hangs:
            lines.append(f"  worker hangs:   {self.worker_hangs} x {self.hang_seconds:g}s")
        if self.eval_timeout_s is not None:
            lines.append(f"  eval timeout:   {self.eval_timeout_s:g}s per batch")
        return "\n".join(lines)


class FaultInjector:
    """Builds deterministic :class:`FaultPlan`\\ s from a spec and seed."""

    def __init__(self, spec: Union[str, FaultSpec], seed: int = 0) -> None:
        self.spec = parse_fault_spec(spec) if isinstance(spec, str) else spec
        self.seed = seed

    def plan(
        self, topology: Optional[GridTopology] = None, horizon: float = 60.0
    ) -> FaultPlan:
        """Materialise the plan over *topology* within ``[0, horizon)``.

        *topology* may be ``None`` when the spec has only execution clauses
        (worker-crash / worker-hang / eval-timeout); grid clauses then
        contribute nothing.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = make_rng(self.seed)
        events: List[GridEvent] = []
        if topology is not None:
            for clause in self.spec.grid_clauses:
                events.extend(self._grid_events(clause, topology, horizon, rng))
        events.sort(key=lambda e: (e.time, e.kind, e.machine, e.peer))
        return FaultPlan(
            spec=str(self.spec),
            seed=self.seed,
            grid_events=tuple(events),
            worker_crashes=self.spec.worker_crashes,
            worker_hangs=self.spec.worker_hangs,
            hang_seconds=self.spec.hang_seconds,
            eval_timeout_s=self.spec.eval_timeout_s,
        )

    # -- per-clause materialisation -----------------------------------------

    def _grid_events(
        self, clause: FaultClause, topology: GridTopology, horizon: float, rng
    ) -> List[GridEvent]:
        events: List[GridEvent] = []
        if clause.fault == "machine-crash":
            for name in topology.machine_names():
                if rng.random() >= clause["p"]:
                    continue
                t = float(rng.uniform(0.0, horizon))
                events.append(GridEvent(time=t, kind="fail", machine=name))
                if clause["restore"] > 0:
                    events.append(
                        GridEvent(time=t + clause["restore"], kind="restore", machine=name)
                    )
        elif clause.fault == "slowdown":
            extra_load = clause["factor"] - 1.0
            for name in topology.machine_names():
                if rng.random() >= clause["p"]:
                    continue
                t = float(rng.uniform(0.0, horizon))
                base = topology.machines[name].load
                events.append(
                    GridEvent(time=t, kind="load", machine=name, value=base + extra_load)
                )
                if clause["duration"] > 0:
                    events.append(
                        GridEvent(
                            time=t + clause["duration"], kind="load", machine=name, value=base
                        )
                    )
        elif clause.fault in ("link-degrade", "partition"):
            for a, b in topology.link_pairs():
                if rng.random() >= clause["p"]:
                    continue
                t = float(rng.uniform(0.0, horizon))
                if clause.fault == "link-degrade":
                    events.append(
                        GridEvent(
                            time=t, kind="link-degrade", machine=a, peer=b,
                            value=clause["factor"],
                        )
                    )
                else:
                    events.append(GridEvent(time=t, kind="partition", machine=a, peer=b))
        else:  # pragma: no cover - grid_clauses filters to the kinds above
            raise ValueError(f"not a grid fault: {clause.fault!r}")
        return events
