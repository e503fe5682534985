"""Plans: finite sequences of operations, with validation and simulation.

A plan *solves* an instance of P iff every operation in it is valid when it
is reached and applying the sequence leads from the initial state to a state
satisfying every goal condition (paper, Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.planning.conditions import State
from repro.planning.problem import PlanningProblem

__all__ = ["Plan", "SimulationResult", "simulate"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of stepping a plan through a problem.

    Attributes
    ----------
    states:
        Visited states, ``len(plan) + 1`` entries when the plan is fully
        valid, fewer when execution stopped at an invalid operation.
    executed:
        Number of operations actually applied.
    invalid_index:
        Index of the first invalid operation, or ``None`` if all were valid.
    reaches_goal:
        Whether the final reached state satisfies the goal.
    first_goal_index:
        The smallest number of operations after which the goal held, or
        ``None`` if the goal was never reached along the trajectory.
    cost:
        Total cost of the executed prefix.
    """

    states: tuple
    executed: int
    invalid_index: Optional[int]
    reaches_goal: bool
    first_goal_index: Optional[int]
    cost: float

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def is_valid(self) -> bool:
        return self.invalid_index is None

    @property
    def solves(self) -> bool:
        return self.is_valid and self.reaches_goal


@dataclass(frozen=True)
class Plan:
    """An immutable sequence of ground operations."""

    operations: tuple
    name: str = "plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "operations", tuple(self.operations))

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __getitem__(self, i):
        return self.operations[i]

    @property
    def cost(self) -> float:
        return float(sum(op.cost for op in self.operations))

    def concat(self, other: "Plan") -> "Plan":
        """Concatenation — how the multi-phase GA assembles its final plan."""
        return Plan(self.operations + other.operations, name=self.name)

    def prefix(self, n: int) -> "Plan":
        return Plan(self.operations[:n], name=self.name)

    def simulate(self, problem: PlanningProblem, stop_at_invalid: bool = True) -> SimulationResult:
        return simulate(self, problem, stop_at_invalid=stop_at_invalid)

    def solves(self, problem: PlanningProblem) -> bool:
        """True iff this plan is valid and reaches the goal (paper's criterion)."""
        return self.simulate(problem).solves

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " ; ".join(op.name for op in self.operations)


def simulate(plan: Plan, problem: PlanningProblem, stop_at_invalid: bool = True) -> SimulationResult:
    """Step *plan* through *problem* from its initial state.

    With ``stop_at_invalid=False``, invalid operations are skipped (the state
    "stays at the current state", as in the paper's preliminary
    direct-encoding match-fitness computation) instead of aborting.
    """
    state = problem.initial
    states = [state]
    invalid_index: Optional[int] = None
    first_goal: Optional[int] = 0 if problem.is_goal(state) else None
    executed = 0
    cost = 0.0
    for i, op in enumerate(plan.operations):
        if not op.applicable(state):
            if stop_at_invalid:
                invalid_index = i
                break
            if invalid_index is None:
                invalid_index = i
            continue
        state = op.apply_unchecked(state)
        states.append(state)
        executed += 1
        cost += op.cost
        if first_goal is None and problem.is_goal(state):
            first_goal = executed
    return SimulationResult(
        states=tuple(states),
        executed=executed,
        invalid_index=invalid_index,
        reaches_goal=problem.is_goal(state),
        first_goal_index=first_goal,
        cost=cost,
    )
