"""Robot navigation on an occupancy grid — Sinergy's evaluation domain (§2).

One or two robots move on a rectangular grid with obstacle cells; robots may
not share a cell or swap through each other.  Goal fitness is a normalised
Manhattan-distance measure, mirroring the sliding-tile construction, so the
GA planner gets a graded signal rather than a goal/no-goal cliff.

State: a tuple of ``(row, col)`` robot positions, one per robot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Sequence, Tuple

from repro.protocol import PlanningDomain

__all__ = ["NavMove", "GridNavigationDomain"]

#: (name, drow, dcol) in a fixed order for decode determinism.
_DIRS = (("north", -1, 0), ("south", 1, 0), ("west", 0, -1), ("east", 0, 1))


@dataclass(frozen=True)
class NavMove:
    """Move *robot* one cell in *direction*."""

    robot: int
    direction: str

    def __str__(self) -> str:
        return f"move(r{self.robot}, {self.direction})"


class GridNavigationDomain(PlanningDomain):
    """One or more robots navigating to per-robot goal cells.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.
    starts / goals:
        Per-robot start and goal cells (equal lengths).
    obstacles:
        Blocked cells.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        starts: Sequence[Tuple[int, int]],
        goals: Sequence[Tuple[int, int]],
        obstacles: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1×1, got {rows}×{cols}")
        if len(starts) != len(goals) or not starts:
            raise ValueError("starts and goals must be equal-length, non-empty")
        self.rows, self.cols = rows, cols
        self.obstacles: FrozenSet[Tuple[int, int]] = frozenset(obstacles or ())
        for label, cells in (("start", starts), ("goal", goals)):
            for cell in cells:
                if not self._in_bounds(cell):
                    raise ValueError(f"{label} cell {cell} outside the {rows}×{cols} grid")
                if cell in self.obstacles:
                    raise ValueError(f"{label} cell {cell} is an obstacle")
        if len(set(starts)) != len(starts):
            raise ValueError("robots cannot share a start cell")
        if len(set(goals)) != len(goals):
            raise ValueError("robots cannot share a goal cell")
        self._starts = tuple(tuple(c) for c in starts)
        self._goals = tuple(tuple(c) for c in goals)
        self.n_robots = len(starts)
        self.name = f"nav-{rows}x{cols}-{self.n_robots}r"
        # Normalisation: worst-case per-robot distance is the grid diameter.
        self._bound = (rows - 1 + cols - 1) * self.n_robots or 1
        self._moves = tuple(
            NavMove(r, name) for r in range(self.n_robots) for name, _, _ in _DIRS
        )

    def _in_bounds(self, cell: Tuple[int, int]) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    @property
    def initial_state(self) -> tuple:
        return self._starts

    def _target(self, state, mv: NavMove) -> Optional[Tuple[int, int]]:
        r, c = state[mv.robot]
        for name, dr, dc in _DIRS:
            if name == mv.direction:
                cell = (r + dr, c + dc)
                break
        else:  # pragma: no cover
            raise ValueError(f"unknown direction {mv.direction!r}")
        if not self._in_bounds(cell) or cell in self.obstacles:
            return None
        if cell in state:  # another robot occupies it
            return None
        return cell

    def valid_operations(self, state) -> Sequence[NavMove]:
        return [mv for mv in self._moves if self._target(state, mv) is not None]

    def apply(self, state, op: NavMove) -> tuple:
        cell = self._target(state, op)
        if cell is None:
            raise ValueError(f"move {op} is invalid in state {state}")
        out = list(state)
        out[op.robot] = cell
        return tuple(out)

    def total_distance(self, state) -> int:
        return sum(
            abs(p[0] - g[0]) + abs(p[1] - g[1]) for p, g in zip(state, self._goals)
        )

    def goal_fitness(self, state) -> float:
        return 1.0 - self.total_distance(state) / self._bound

    def is_goal(self, state) -> bool:
        return tuple(state) == self._goals

    def state_key(self, state) -> Hashable:
        return state
