"""The planning problem four-tuple P = (C, O, s0, g).

Matches the paper's Section 1 definition: a finite set of ground atomic
conditions ``C``, a finite set of operations ``O`` (each with preconditions,
postconditions, and a cost), an initial state ``s0`` and a goal state ``g``
(a set of conditions that must all hold).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.planning.conditions import Atom, State, format_atom, make_state
from repro.planning.operation import check_operations

__all__ = ["PlanningProblem"]


@dataclass(frozen=True)
class PlanningProblem:
    """An instance of a STRIPS-like planning problem.

    Operations are stored in a fixed order; :meth:`valid_operations` preserves
    that order, which the GA's indirect encoding relies on (the gene→operation
    mapping must be deterministic for a given state).
    """

    conditions: frozenset
    operations: tuple
    initial: State
    goal: frozenset
    name: str = "problem"

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", frozenset(self.conditions))
        object.__setattr__(self, "operations", tuple(self.operations))
        object.__setattr__(self, "initial", make_state(self.initial))
        object.__setattr__(self, "goal", frozenset(self.goal))
        stray = self.initial - self.conditions
        if stray:
            raise ValueError(
                f"initial state contains atoms outside the condition universe: "
                f"{sorted(format_atom(a) for a in stray)}"
            )
        stray = self.goal - self.conditions
        if stray:
            raise ValueError(
                f"goal contains atoms outside the condition universe: "
                f"{sorted(format_atom(a) for a in stray)}"
            )
        check_operations(self.operations, self.conditions)
        names = [op.name for op in self.operations]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate operation names: {dupes}")

    @cached_property
    def operation_by_name(self) -> dict:
        return {op.name: op for op in self.operations}

    def valid_operations(self, state: State) -> list:
        """All operations applicable in *state*, in definition order."""
        return [op for op in self.operations if op.preconditions <= state]

    def is_goal(self, state: State) -> bool:
        """True iff *state* satisfies every goal condition."""
        return self.goal <= state

    def goal_satisfaction(self, state: State) -> float:
        """Fraction of goal conditions satisfied by *state* (1.0 at the goal)."""
        if not self.goal:
            return 1.0
        return len(self.goal & state) / len(self.goal)

    def successors(self, state: State) -> list:
        """``(operation, next_state)`` pairs for every valid operation."""
        return [(op, op.apply_unchecked(state)) for op in self.valid_operations(state)]

    def restarted_from(self, new_initial: Iterable[Atom]) -> "PlanningProblem":
        """The same problem with a different initial state.

        Used by the multi-phase GA, which threads the best solution's final
        state into the next phase, and by dynamic replanning, which restarts
        from the observed grid state.
        """
        return PlanningProblem(
            conditions=self.conditions,
            operations=self.operations,
            initial=make_state(new_initial),
            goal=self.goal,
            name=self.name,
        )

    def with_goal(self, new_goal: Iterable[Atom]) -> "PlanningProblem":
        """The same problem with a different goal (e.g. computation steering)."""
        return PlanningProblem(
            conditions=self.conditions,
            operations=self.operations,
            initial=self.initial,
            goal=frozenset(new_goal),
            name=self.name,
        )
