"""Tests for the Graphplan planner."""

from repro.domains import blocks_world_problem, hanoi_strips_problem
from repro.planning import Operation, Plan, PlanningProblem, atom
from repro.planning.search import graphplan
from repro.planning.search.graphplan import PlanningGraph


def _chain_problem(length=3):
    """p0 --op1--> p1 --op2--> ... linear chain."""
    ops = tuple(
        Operation(
            f"op{i}",
            preconditions={atom(f"p{i - 1}")},
            add={atom(f"p{i}")},
        )
        for i in range(1, length + 1)
    )
    conditions = {atom(f"p{i}") for i in range(length + 1)}
    return PlanningProblem(
        conditions=conditions,
        operations=ops,
        initial={atom("p0")},
        goal={atom(f"p{length}")},
    )


class TestGraphplan:
    def test_linear_chain(self):
        p = _chain_problem(4)
        r = graphplan(p)
        assert r.solved
        assert r.plan_length == 4
        assert Plan(r.plan).solves(p)

    def test_trivial_goal_already_true(self):
        p = _chain_problem(2).with_goal({atom("p0")})
        r = graphplan(p)
        assert r.solved and r.plan_length == 0

    def test_hanoi3_optimal(self):
        p = hanoi_strips_problem(3)
        r = graphplan(p, max_levels=15)
        assert r.solved
        assert r.plan_length == 7  # Hanoi admits no parallelism
        assert Plan(r.plan).solves(p)

    def test_blocks_world(self):
        p = blocks_world_problem([["a", "b", "c"]], [["c", "b", "a"]])
        r = graphplan(p, max_levels=20)
        assert r.solved
        assert Plan(r.plan).solves(p)

    def test_unsolvable_detected(self):
        p = _chain_problem(2).with_goal({atom("p0"), atom("p2")})
        # p0 is deleted by nothing, so this IS solvable; build a truly
        # unreachable goal instead.
        q = PlanningProblem(
            conditions={atom("a"), atom("g")},
            operations=(),
            initial={atom("a")},
            goal={atom("g")},
        )
        r = graphplan(q)
        assert not r.solved
        assert r.exhausted

    def test_max_levels_budget(self):
        p = hanoi_strips_problem(4)
        r = graphplan(p, max_levels=3)  # optimum needs 15 levels
        assert not r.solved
        assert not r.exhausted  # gave up on budget, not proven unsolvable

    def test_parallel_actions_serialise_correctly(self):
        # Two independent goals achievable in one parallel step.
        ops = (
            Operation("left", preconditions={atom("s")}, add={atom("g1")}),
            Operation("right", preconditions={atom("s")}, add={atom("g2")}),
        )
        p = PlanningProblem(
            conditions={atom("s"), atom("g1"), atom("g2")},
            operations=ops,
            initial={atom("s")},
            goal={atom("g1"), atom("g2")},
        )
        r = graphplan(p)
        assert r.solved
        assert r.plan_length == 2  # both actions, one level, serialised
        assert r.expanded == 1  # one graph level built
        assert Plan(r.plan).solves(p)

    def test_mutex_forces_two_levels(self):
        # Same two goals, but the actions interfere (each deletes s), so
        # they cannot share a level... after the first, s is gone, so the
        # instance is actually unsolvable — a classic mutex scenario.
        ops = (
            Operation("left", preconditions={atom("s")}, add={atom("g1")}, delete={atom("s")}),
            Operation("right", preconditions={atom("s")}, add={atom("g2")}, delete={atom("s")}),
        )
        p = PlanningProblem(
            conditions={atom("s"), atom("g1"), atom("g2")},
            operations=ops,
            initial={atom("s")},
            goal={atom("g1"), atom("g2")},
        )
        r = graphplan(p, max_levels=10)
        assert not r.solved


class TestPlanningGraph:
    def test_level_zero_is_initial_state(self):
        p = _chain_problem(2)
        g = PlanningGraph(p)
        assert set(g.levels[0].props) == set(p.initial)

    def test_expand_adds_levels(self):
        p = _chain_problem(2)
        g = PlanningGraph(p)
        g.expand()
        assert g.n_levels == 2
        assert atom("p1") in g.levels[1].prop_index

    def test_levels_off_eventually(self):
        p = _chain_problem(2)
        g = PlanningGraph(p)
        for _ in range(6):
            g.expand()
        assert g.levelled_off()

    def test_noop_carries_propositions_forward(self):
        p = _chain_problem(2)
        g = PlanningGraph(p)
        g.expand()
        assert atom("p0") in g.levels[1].prop_index
