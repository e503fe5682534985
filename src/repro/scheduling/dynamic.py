"""Dynamic mapping of arriving independent tasks (Maheswaran et al. 1999).

The paper's reference [12]: tasks arrive over time and are mapped on-line.
Two modes are implemented:

- **Immediate mode** — each task is mapped the moment it arrives:
  MCT (minimum completion time), MET (minimum execution time), OLB
  (earliest-free machine), KPB (k-percent best: MCT restricted to the
  task's k% fastest machines), and SA (switching algorithm: alternates
  between MCT and MET based on the machine load-balance ratio).
- **Batch mode** — arrivals are buffered and mapped together at regular
  mapping events using Min-min, Max-min, or Sufferage over the batch.

All functions consume an arrival schedule plus an ETC matrix and return a
:class:`DynamicScheduleResult` with per-task completion times and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

__all__ = [
    "TaskArrival",
    "DynamicScheduleResult",
    "immediate_mode",
    "batch_mode",
    "poisson_arrivals",
    "IMMEDIATE_HEURISTICS",
    "BATCH_HEURISTICS",
]


@dataclass(frozen=True)
class TaskArrival:
    """One task: its ETC row index and its arrival time."""

    task: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass
class DynamicScheduleResult:
    """Outcome of a dynamic mapping run."""

    assignment: np.ndarray  # task -> machine
    start: np.ndarray
    completion: np.ndarray

    @property
    def makespan(self) -> float:
        return float(self.completion.max()) if self.completion.size else 0.0


def poisson_arrivals(
    n_tasks: int, rate: float, rng: np.random.Generator
) -> List[TaskArrival]:
    """Poisson arrival process: exponential inter-arrival times at *rate*."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    times = np.cumsum(rng.exponential(1.0 / rate, size=n_tasks))
    return [TaskArrival(task=i, time=float(t)) for i, t in enumerate(times)]


def _validate(etc: np.ndarray, arrivals: Sequence[TaskArrival]) -> None:
    if etc.ndim != 2 or etc.size == 0:
        raise ValueError("ETC must be a non-empty 2-D matrix")
    tasks = sorted(a.task for a in arrivals)
    if tasks != list(range(len(arrivals))) or len(arrivals) != etc.shape[0]:
        raise ValueError(
            "arrivals must reference each ETC row exactly once "
            f"(got {len(arrivals)} arrivals for {etc.shape[0]} tasks)"
        )


# -- immediate mode -------------------------------------------------------------


def _pick_mct(etc, task, ready, now, _state) -> int:
    completion = np.maximum(ready, now) + etc[task]
    return int(np.argmin(completion))


def _pick_met(etc, task, ready, now, _state) -> int:
    return int(np.argmin(etc[task]))


def _pick_olb(etc, task, ready, now, _state) -> int:
    return int(np.argmin(np.maximum(ready, now)))


def _make_pick_kpb(percent: float) -> Callable:
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")

    def pick(etc, task, ready, now, _state) -> int:
        n_machines = etc.shape[1]
        k = max(1, int(round(n_machines * percent / 100.0)))
        best = np.argsort(etc[task])[:k]  # the task's k% fastest machines
        completion = np.maximum(ready[best], now) + etc[task, best]
        return int(best[int(np.argmin(completion))])

    return pick


def _make_pick_sa(low: float = 0.6, high: float = 0.9) -> Callable:
    """Switching algorithm: MET while load is balanced, MCT when it skews.

    The balance ratio is min(ready)/max(ready) in [0, 1]; MET piles work on
    fast machines (ratio drops), MCT rebalances (ratio rises) — SA hysteresis
    switches between them at the *low*/*high* thresholds.
    """
    if not 0 <= low <= high <= 1:
        raise ValueError("thresholds must satisfy 0 <= low <= high <= 1")

    def pick(etc, task, ready, now, state) -> int:
        max_ready = float(np.maximum(ready, now).max())
        ratio = 1.0 if max_ready == 0 else float(np.maximum(ready, now).min()) / max_ready
        mode = state.setdefault("mode", "mct")
        if mode == "mct" and ratio >= high:
            state["mode"] = mode = "met"
        elif mode == "met" and ratio <= low:
            state["mode"] = mode = "mct"
        picker = _pick_met if mode == "met" else _pick_mct
        return picker(etc, task, ready, now, state)

    return pick


IMMEDIATE_HEURISTICS: Dict[str, Callable] = {
    "MCT": _pick_mct,
    "MET": _pick_met,
    "OLB": _pick_olb,
    "KPB": _make_pick_kpb(25.0),
    "SA": _make_pick_sa(),
}


def immediate_mode(
    etc: np.ndarray,
    arrivals: Sequence[TaskArrival],
    heuristic: str | Callable = "MCT",
) -> DynamicScheduleResult:
    """Map each task the instant it arrives."""
    _validate(etc, arrivals)
    pick = IMMEDIATE_HEURISTICS[heuristic] if isinstance(heuristic, str) else heuristic
    n_tasks, n_machines = etc.shape
    ready = np.zeros(n_machines)
    assignment = np.empty(n_tasks, dtype=np.int64)
    start = np.empty(n_tasks)
    completion = np.empty(n_tasks)
    state: dict = {}
    for arrival in sorted(arrivals, key=lambda a: a.time):
        t = arrival.task
        m = pick(etc, t, ready, arrival.time, state)
        begin = max(float(ready[m]), arrival.time)
        assignment[t] = m
        start[t] = begin
        completion[t] = begin + etc[t, m]
        ready[m] = completion[t]
    return DynamicScheduleResult(assignment=assignment, start=start, completion=completion)


# -- batch mode ------------------------------------------------------------------


def _batch_min_min(etc, batch, ready, now):
    return _batch_list(etc, batch, ready, now, prefer_max=False, sufferage=False)


def _batch_max_min(etc, batch, ready, now):
    return _batch_list(etc, batch, ready, now, prefer_max=True, sufferage=False)


def _batch_sufferage(etc, batch, ready, now):
    return _batch_list(etc, batch, ready, now, prefer_max=False, sufferage=True)


def _batch_list(etc, batch, ready, now, prefer_max: bool, sufferage: bool):
    """Shared batched list-scheduling core over pending task ids."""
    pending = list(batch)
    out = []
    ready = ready.copy()
    while pending:
        rows = np.array(pending)
        completion = np.maximum(ready, now)[None, :] + etc[rows]
        best_m = completion.argmin(axis=1)
        best_t = completion[np.arange(len(rows)), best_m]
        if sufferage and etc.shape[1] > 1:
            part = np.partition(completion, 1, axis=1)
            criterion = part[:, 1] - part[:, 0]
            idx = int(np.argmax(criterion))
        elif prefer_max:
            idx = int(np.argmax(best_t))
        else:
            idx = int(np.argmin(best_t))
        task = pending.pop(idx)
        machine = int(best_m[idx])
        begin = max(float(ready[machine]), now)
        ready[machine] = begin + etc[task, machine]
        out.append((task, machine, begin))
    return out


BATCH_HEURISTICS: Dict[str, Callable] = {
    "Min-min": _batch_min_min,
    "Max-min": _batch_max_min,
    "Sufferage": _batch_sufferage,
}


def batch_mode(
    etc: np.ndarray,
    arrivals: Sequence[TaskArrival],
    interval: float,
    heuristic: str | Callable = "Min-min",
) -> DynamicScheduleResult:
    """Buffer arrivals and map the batch at every mapping event.

    Mapping events occur every *interval* seconds (plus a final event after
    the last arrival).  Already-running work is modelled through machine
    ready times; batch tasks may start only at or after their mapping event.
    """
    _validate(etc, arrivals)
    if interval <= 0:
        raise ValueError("interval must be positive")
    mapper = BATCH_HEURISTICS[heuristic] if isinstance(heuristic, str) else heuristic
    n_tasks, n_machines = etc.shape
    ready = np.zeros(n_machines)
    assignment = np.empty(n_tasks, dtype=np.int64)
    start = np.empty(n_tasks)
    completion = np.empty(n_tasks)

    ordered = sorted(arrivals, key=lambda a: a.time)
    last_arrival = ordered[-1].time if ordered else 0.0
    events = list(np.arange(interval, last_arrival + interval, interval))
    if not events or events[-1] < last_arrival:
        events.append(last_arrival)

    i = 0
    for event_time in events:
        batch = []
        while i < len(ordered) and ordered[i].time <= event_time:
            batch.append(ordered[i].task)
            i += 1
        if not batch:
            continue
        for task, machine, begin in mapper(etc, batch, ready, event_time):
            assignment[task] = machine
            start[task] = begin
            completion[task] = begin + etc[task, machine]
            ready[machine] = completion[task]
    return DynamicScheduleResult(assignment=assignment, start=start, completion=completion)
