"""Tests for planning heuristics (goal-count, h_add, h_max, goal_gap)."""

import math

import pytest

from repro.domains import hanoi_strips_problem
from repro.planning import Operation, PlanningProblem, atom
from repro.planning.search import (
    astar,
    goal_count,
    goal_gap,
    make_h_add,
    make_h_max,
    zero_heuristic,
)


def _chain(length):
    ops = tuple(
        Operation(f"op{i}", preconditions={atom(f"p{i-1}")}, add={atom(f"p{i}")})
        for i in range(1, length + 1)
    )
    return PlanningProblem(
        conditions={atom(f"p{i}") for i in range(length + 1)},
        operations=ops,
        initial={atom("p0")},
        goal={atom(f"p{length}")},
    )


class TestZeroAndGoalGap:
    def test_zero(self):
        assert zero_heuristic(object()) == 0.0

    def test_goal_gap_scales(self, hanoi3):
        h = goal_gap(hanoi3, scale=10.0)
        assert h(hanoi3.initial_state) == pytest.approx(10.0)
        assert h(((), (3, 2, 1), ())) == pytest.approx(0.0)


class TestGoalCount:
    def test_counts_unsatisfied(self):
        p = _chain(2).with_goal({atom("p1"), atom("p2")})
        h = goal_count(p)
        assert h(p.initial) == 2.0
        assert h(frozenset({atom("p1")})) == 1.0
        assert h(frozenset({atom("p1"), atom("p2")})) == 0.0


class TestHMaxHAdd:
    def test_exact_on_chain(self):
        p = _chain(4)
        hmax = make_h_max(p)
        hadd = make_h_add(p)
        # Single serial goal: both relaxations are exact here.
        assert hmax(p.initial) == pytest.approx(4.0)
        assert hadd(p.initial) == pytest.approx(4.0)

    def test_zero_at_goal(self):
        p = _chain(3)
        goal_state = frozenset({atom("p0"), atom("p1"), atom("p2"), atom("p3")})
        assert make_h_max(p)(goal_state) == 0.0
        assert make_h_add(p)(goal_state) == 0.0

    def test_unreachable_goal_is_infinite(self):
        p = PlanningProblem(
            conditions={atom("a"), atom("g")},
            operations=(),
            initial={atom("a")},
            goal={atom("g")},
        )
        assert make_h_max(p)(p.initial) == math.inf
        assert make_h_add(p)(p.initial) == math.inf

    def test_hadd_dominates_hmax(self):
        p = hanoi_strips_problem(3)
        hmax = make_h_max(p)
        hadd = make_h_add(p)
        assert hadd(p.initial) >= hmax(p.initial)

    def test_hmax_admissible_on_hanoi(self):
        """h_max never exceeds the true optimal cost (checked at the root)."""
        p = hanoi_strips_problem(3)
        assert make_h_max(p)(p.initial) <= 7.0

    def test_astar_with_hmax_is_optimal(self):
        from repro.planning import StripsDomainAdapter

        p = hanoi_strips_problem(3)
        d = StripsDomainAdapter(p)
        r = astar(d, heuristic=make_h_max(p))
        assert r.solved and r.plan_length == 7

    def test_costs_respected(self):
        # One expensive and one cheap achiever for the goal.
        ops = (
            Operation("cheap", preconditions={atom("s")}, add={atom("g")}, cost=1.0),
            Operation("dear", preconditions={atom("s")}, add={atom("g")}, cost=10.0),
        )
        p = PlanningProblem(
            conditions={atom("s"), atom("g")},
            operations=ops,
            initial={atom("s")},
            goal={atom("g")},
        )
        assert make_h_max(p)(p.initial) == pytest.approx(1.0)
