"""Per-generation statistics and run histories."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["GenerationStats", "RunHistory"]


@dataclass(frozen=True)
class GenerationStats:
    """Summary of one evaluated generation."""

    generation: int
    best_total: float
    mean_total: float
    best_goal: float
    mean_goal: float
    mean_length: float
    max_length: int
    min_length: int
    solved_count: int

    @staticmethod
    def from_buffer(generation: int, buffer) -> "GenerationStats":
        """Summary of an evaluated :class:`~repro.core.popbuffer.
        PopulationBuffer`, read straight off its arrays."""
        totals = buffer.total
        goals = buffer.goal
        lengths = buffer.lengths
        return GenerationStats(
            generation=generation,
            best_total=float(totals.max()),
            mean_total=float(totals.mean()),
            best_goal=float(goals.max()),
            mean_goal=float(goals.mean()),
            mean_length=float(lengths.mean()),
            max_length=int(lengths.max()),
            min_length=int(lengths.min()),
            solved_count=int(np.count_nonzero(buffer.goal_reached)),
        )


@dataclass
class RunHistory:
    """The full per-generation trace of one GA run."""

    generations: List[GenerationStats] = field(default_factory=list)

    def record(self, stats: GenerationStats) -> None:
        self.generations.append(stats)

    def __len__(self) -> int:
        return len(self.generations)

    @property
    def best_goal_trace(self) -> np.ndarray:
        return np.array([g.best_goal for g in self.generations])

    @property
    def best_total_trace(self) -> np.ndarray:
        return np.array([g.best_total for g in self.generations])

    @property
    def first_solved_generation(self) -> Optional[int]:
        """Generation index at which some individual first solved the problem."""
        for g in self.generations:
            if g.solved_count > 0:
                return g.generation
        return None
