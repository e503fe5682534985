"""Heuristic functions for the classical baseline planners.

Two families:

- **Domain-protocol heuristics** work on any :class:`PlanningDomain` via its
  goal fitness: ``goal_gap(domain)`` turns ``1 - goal_fitness`` into an
  (inadmissible, but informative) heuristic — the same signal the GA's goal
  fitness provides, which makes GA-vs-heuristic-search comparisons apples to
  apples.

- **STRIPS heuristics** exploit add/delete structure on a
  :class:`PlanningProblem`: the goal-count heuristic, and the classic
  delete-relaxation estimates ``h_max`` (admissible) and ``h_add``
  (inadmissible; the HSP planner's heuristic, Bonet & Geffner 2001).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict

from repro.protocol import PlanningDomain
from repro.planning.conditions import Atom, State
from repro.planning.problem import PlanningProblem

__all__ = ["goal_gap", "goal_count", "make_h_add", "make_h_max", "zero_heuristic"]

Heuristic = Callable[[object], float]


def zero_heuristic(state: object) -> float:
    """h ≡ 0: turns A* into uniform-cost search."""
    return 0.0


def goal_gap(domain: PlanningDomain, scale: float = 1.0) -> Heuristic:
    """``scale * (1 - goal_fitness(state))`` — the GA's own goal signal.

    Not admissible in general; pick *scale* ≈ the typical plan length for a
    usefully weighted greedy/WA* search.
    """

    def h(state: object) -> float:
        return scale * (1.0 - float(domain.goal_fitness(state)))

    return h


def goal_count(problem: PlanningProblem) -> Heuristic:
    """Number of unsatisfied goal atoms (admissible only for unit add-lists)."""
    goal = problem.goal

    def h(state: State) -> float:
        return float(len(goal - state))

    return h


def _relaxed_costs(problem: PlanningProblem, state: State, combine) -> Dict[Atom, float]:
    """Generalised delete-relaxation fixpoint via a Dijkstra-style sweep.

    *combine* aggregates precondition costs: ``sum`` gives h_add, ``max``
    gives h_max.  Returns cost-to-achieve for every reachable atom.
    """
    cost: Dict[Atom, float] = {a: 0.0 for a in state}
    # For each operation, how many of its preconditions remain unachieved.
    remaining = {}
    by_pre: Dict[Atom, list] = {}
    # Heap entries carry a counter so mixed-type atoms are never compared.
    counter = itertools.count()
    queue: list = [(0.0, next(counter), a) for a in state]
    heapq.heapify(queue)
    for op in problem.operations:
        remaining[op] = len(op.preconditions)
        for p in op.preconditions:
            by_pre.setdefault(p, []).append(op)
    done = set()

    def op_cost(op) -> float:
        pres = [cost[p] for p in op.preconditions]
        base = combine(pres) if pres else 0.0
        return base + op.cost

    # Operations with no preconditions fire immediately.
    for op in problem.operations:
        if remaining[op] == 0:
            c = op_cost(op)
            for a in op.add:
                if c < cost.get(a, math.inf):
                    cost[a] = c
                    heapq.heappush(queue, (c, next(counter), a))

    while queue:
        c, _, atom_ = heapq.heappop(queue)
        if atom_ in done or c > cost.get(atom_, math.inf):
            continue
        done.add(atom_)
        for op in by_pre.get(atom_, ()):
            remaining[op] -= 1
            if remaining[op] == 0:
                oc = op_cost(op)
                for a in op.add:
                    if oc < cost.get(a, math.inf):
                        cost[a] = oc
                        heapq.heappush(queue, (oc, next(counter), a))
    return cost


def make_h_add(problem: PlanningProblem) -> Heuristic:
    """HSP's additive heuristic: sum of relaxed atom costs over the goal.

    Assumes subgoal independence, so it can overestimate (inadmissible) but
    is highly informative — "the function is admissible and never
    overestimates" in the paper's related-work summary refers to h_max-style
    bounds; h_add trades admissibility for guidance.
    """

    def h(state: State) -> float:
        costs = _relaxed_costs(problem, state, sum)
        total = 0.0
        for g in problem.goal:
            c = costs.get(g)
            if c is None:
                return math.inf
            total += c
        return total

    return h


def make_h_max(problem: PlanningProblem) -> Heuristic:
    """The admissible max-relaxation heuristic: max relaxed goal-atom cost."""

    def h(state: State) -> float:
        costs = _relaxed_costs(problem, state, max)
        worst = 0.0
        for g in problem.goal:
            c = costs.get(g)
            if c is None:
                return math.inf
            worst = max(worst, c)
        return worst

    return h
