"""Termination criteria beyond fixed generation budgets.

The paper stops a run on a generation budget (or first valid solution).
Long experiment sweeps benefit from richer criteria: stagnation detection
(no best-fitness improvement for K generations), fitness targets, and
wall-clock deadlines.  Criteria compose with :func:`any_of` / :func:`all_of`
and plug into :meth:`GARun.run` via the ``on_generation`` callback, or are
polled directly by custom loops.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.stats import GenerationStats

__all__ = [
    "TerminationCriterion",
    "Stagnation",
    "FitnessTarget",
    "Deadline",
    "GenerationLimit",
    "any_of",
    "all_of",
]

# A criterion consumes per-generation stats and answers "stop now?".
TerminationCriterion = Callable[[GenerationStats], bool]


class Stagnation:
    """Stop after *patience* generations without best-fitness improvement."""

    def __init__(self, patience: int, min_delta: float = 1e-12) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.patience = patience
        self.min_delta = min_delta
        self._best = float("-inf")
        self._since = 0

    def __call__(self, stats: GenerationStats) -> bool:
        if stats.best_total > self._best + self.min_delta:
            self._best = stats.best_total
            self._since = 0
            return False
        self._since += 1
        return self._since >= self.patience

    def reset(self) -> None:
        self._best = float("-inf")
        self._since = 0


class FitnessTarget:
    """Stop once the generation best reaches *target* total fitness."""

    def __init__(self, target: float) -> None:
        self.target = target

    def __call__(self, stats: GenerationStats) -> bool:
        return stats.best_total >= self.target


class Deadline:
    """Stop after *seconds* of wall-clock time (measured from creation)."""

    def __init__(self, seconds: float, clock: Callable[[], float] = time.perf_counter) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self._clock = clock
        self._end = clock() + seconds

    def __call__(self, stats: GenerationStats) -> bool:
        return self._clock() >= self._end


class GenerationLimit:
    """Stop at generation *limit* (0-based, inclusive trigger)."""

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self.limit = limit

    def __call__(self, stats: GenerationStats) -> bool:
        return stats.generation >= self.limit


def any_of(*criteria: TerminationCriterion) -> TerminationCriterion:
    """Stop when any sub-criterion fires.

    Evaluates every criterion each generation (no short-circuit), so
    stateful criteria like :class:`Stagnation` keep accurate counters.
    """

    def combined(stats: GenerationStats) -> bool:
        return any([c(stats) for c in criteria])

    return combined


def all_of(*criteria: TerminationCriterion) -> TerminationCriterion:
    """Stop only when every sub-criterion fires in the same generation."""

    def combined(stats: GenerationStats) -> bool:
        return all([c(stats) for c in criteria])

    return combined
