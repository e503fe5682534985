"""Tests for BFS / UCS / A* / weighted A* / IDA*."""

import pytest

from repro.domains import HanoiDomain, hanoi_strips_problem
from repro.planning import StripsDomainAdapter
from repro.planning.search import (
    astar,
    breadth_first_search,
    idastar,
    uniform_cost_search,
    weighted_astar,
)


class TestBFS:
    @pytest.mark.parametrize("n,optimal", [(1, 1), (2, 3), (3, 7), (4, 15)])
    def test_optimal_on_hanoi(self, n, optimal):
        r = breadth_first_search(HanoiDomain(n))
        assert r.solved
        assert r.plan_length == optimal

    def test_plan_replays_to_goal(self, hanoi3):
        r = breadth_first_search(hanoi3)
        assert hanoi3.is_goal(hanoi3.execute(r.plan))

    def test_start_at_goal(self, hanoi3):
        r = breadth_first_search(hanoi3, start_state=((), (3, 2, 1), ()))
        assert r.solved and r.plan_length == 0

    def test_expansion_budget(self, tile3):
        r = breadth_first_search(tile3, max_expansions=10)
        assert not r.solved
        assert not r.exhausted  # budget, not exhaustion

    def test_exhaustion_detected(self):
        from repro.planning import Operation, PlanningProblem, atom

        # Unreachable goal in a 2-state space.
        p = PlanningProblem(
            conditions={atom("a"), atom("b"), atom("g")},
            operations=(Operation("ab", preconditions={atom("a")}, add={atom("b")}),),
            initial={atom("a")},
            goal={atom("g")},
        )
        r = breadth_first_search(StripsDomainAdapter(p))
        assert not r.solved and r.exhausted


class TestAStar:
    def test_optimal_with_admissible_heuristic(self, tile3):
        r = astar(tile3, heuristic=lambda s: float(tile3.manhattan(s)))
        assert r.solved
        # BFS-verified optimum for the reversed 3×3 start.
        bfs = breadth_first_search(tile3)
        assert r.plan_length == bfs.plan_length

    def test_zero_heuristic_equals_ucs(self, hanoi3):
        a = astar(hanoi3)
        u = uniform_cost_search(hanoi3)
        assert a.plan_length == u.plan_length == 7

    def test_heuristic_reduces_expansions(self, tile3):
        blind = breadth_first_search(tile3)
        informed = astar(tile3, heuristic=lambda s: float(tile3.manhattan(s)))
        assert informed.expanded < blind.expanded / 10

    def test_weight_below_one_rejected(self, hanoi3):
        with pytest.raises(ValueError):
            astar(hanoi3, weight=0.5)

    def test_budget_respected(self, tile3):
        r = astar(tile3, heuristic=lambda s: 0.0, max_expansions=5)
        assert not r.solved and r.expanded <= 5


class TestWeightedAStar:
    def test_solves_but_may_be_suboptimal(self, tile3):
        h = lambda s: float(tile3.manhattan(s))
        opt = astar(tile3, heuristic=h)
        w = weighted_astar(tile3, h, weight=3.0)
        assert w.solved
        assert w.plan_length >= opt.plan_length
        assert w.expanded <= opt.expanded

    def test_plan_is_executable(self, tile3):
        w = weighted_astar(tile3, lambda s: float(tile3.manhattan(s)), weight=2.0)
        assert tile3.is_goal(tile3.execute(w.plan))


class TestIDAStar:
    def test_optimal_on_tile3(self, tile3):
        h = lambda s: float(tile3.manhattan(s))
        r = idastar(tile3, h)
        opt = astar(tile3, heuristic=h)
        assert r.solved
        assert r.plan_length == opt.plan_length

    def test_optimal_on_hanoi(self, hanoi3):
        r = idastar(hanoi3, lambda s: 0.0)
        assert r.solved and r.plan_length == 7

    def test_start_at_goal(self, tile3):
        r = idastar(tile3, lambda s: float(tile3.manhattan(s)), start_state=tile3.goal_state)
        assert r.solved and r.plan_length == 0


class TestOnStripsAdapter:
    def test_bfs_matches_native_hanoi(self):
        native = breadth_first_search(HanoiDomain(3))
        strips = breadth_first_search(StripsDomainAdapter(hanoi_strips_problem(3)))
        assert native.plan_length == strips.plan_length == 7
