"""Tests for plan reuse (prefix matching + repair)."""

from repro.domains import HanoiDomain, optimal_hanoi_moves
from repro.planning.reuse import reuse_plan, valid_prefix
from repro.planning.search import breadth_first_search


def _bfs_replanner(max_expansions=500_000):
    def plan(domain, start_state):
        r = breadth_first_search(domain, start_state=start_state, max_expansions=max_expansions)
        return r.plan

    return plan


class TestValidPrefix:
    def test_full_plan_valid(self, hanoi3):
        plan = optimal_hanoi_moves(3)
        assert valid_prefix(hanoi3, plan, hanoi3.initial_state) == 7

    def test_detects_first_invalid(self, hanoi3):
        plan = list(optimal_hanoi_moves(3))
        plan[2], plan[3] = plan[3], plan[2]  # scramble the middle
        k = valid_prefix(hanoi3, plan, hanoi3.initial_state)
        assert k < 7

    def test_empty_plan(self, hanoi3):
        assert valid_prefix(hanoi3, [], hanoi3.initial_state) == 0


class TestReusePlan:
    def test_identical_problem_reuses_everything(self, hanoi3):
        plan = optimal_hanoi_moves(3)
        result = reuse_plan(hanoi3, plan, _bfs_replanner())
        assert result.solved
        assert result.repaired == 0
        assert result.reuse_fraction == 1.0
        assert tuple(result.plan) == tuple(plan)

    def test_changed_start_state_repairs(self, hanoi3):
        """Perturbed initial state: most of the old plan is invalid; reuse
        keeps what it can and repair completes the job."""
        plan = optimal_hanoi_moves(3)
        ops = hanoi3.valid_operations(hanoi3.initial_state)
        perturbed = hanoi3.apply(hanoi3.initial_state, ops[-1])
        result = reuse_plan(hanoi3, plan, _bfs_replanner(), start_state=perturbed)
        assert result.solved
        state = perturbed
        for op in result.plan:
            assert op in list(hanoi3.valid_operations(state))
            state = hanoi3.apply(state, op)
        assert hanoi3.is_goal(state)

    def test_changed_goal_repairs(self):
        """Same mechanics, different goal stake (computation steering)."""
        old_domain = HanoiDomain(3, goal_stake=1)
        new_domain = HanoiDomain(3, goal_stake=2)
        plan = optimal_hanoi_moves(3, dst=1)
        result = reuse_plan(new_domain, plan, _bfs_replanner())
        assert result.solved
        final = new_domain.execute(result.plan)
        assert new_domain.is_goal(final)

    def test_close_problems_reuse_more_than_distant(self, hanoi5):
        """Nebel & Koehler's regime: reuse pays when problems are close."""
        plan = optimal_hanoi_moves(5)
        # Close: start one step along the optimal path.
        close_start = hanoi5.apply(hanoi5.initial_state, plan[0])
        close = reuse_plan(hanoi5, plan[1:], _bfs_replanner(), start_state=close_start)
        assert close.solved and close.reuse_fraction == 1.0

    def test_failed_repair_reported(self, hanoi5):
        def hopeless(domain, start_state):
            return None

        result = reuse_plan(hanoi5, [], hopeless)
        assert not result.solved
        assert result.plan is None

    def test_cut_prefers_goal_progress(self, hanoi3):
        """A valid old plan that wanders away gets cut early: the chosen
        prefix end maximises goal fitness, not prefix length."""
        # Move d1 A->B (fitness up), then B->C (fitness back down).
        from repro.domains import HanoiMove

        wander = [HanoiMove(0, 1), HanoiMove(1, 2)]
        result = reuse_plan(hanoi3, wander, _bfs_replanner())
        assert result.solved
        assert result.reused <= 1  # kept at most the useful first move

    def test_works_on_tiles(self, tile3):
        opt = breadth_first_search(tile3).plan
        # Perturb the start by one blank move.
        mv = tile3.valid_operations(tile3.initial_state)[0]
        start = tile3.apply(tile3.initial_state, mv)
        result = reuse_plan(tile3, opt, _bfs_replanner(), start_state=start)
        assert result.solved
