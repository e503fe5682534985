"""Tests for Blocks World, Navigation, and Briefcase domains."""

import pytest

from repro.core import GAConfig, GAPlanner
from repro.domains import (
    BlocksWorldDomain,
    BriefcaseDomain,
    GridNavigationDomain,
    NavMove,
    blocks_world_problem,
    briefcase_problem,
    towers_to_atoms,
)
from repro.planning import Plan, atom
from repro.planning.search import astar, breadth_first_search, goal_gap


class TestBlocksWorld:
    def test_towers_to_atoms(self):
        atoms = towers_to_atoms([["a", "b"], ["c"]])
        assert atom("ontable", "a") in atoms
        assert atom("on", "b", "a") in atoms
        assert atom("clear", "b") in atoms
        assert atom("clear", "c") in atoms
        assert atom("handempty") in atoms

    def test_duplicate_block_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            towers_to_atoms([["a"], ["a"]])

    def test_empty_tower_rejected(self):
        with pytest.raises(ValueError):
            towers_to_atoms([[]])

    def test_block_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            blocks_world_problem([["a"]], [["b"]])

    def test_bfs_solves_reversal(self):
        p = blocks_world_problem([["a", "b", "c"]], [["c", "b", "a"]])
        from repro.planning import StripsDomainAdapter

        r = breadth_first_search(StripsDomainAdapter(p))
        assert r.solved
        assert Plan(r.plan).solves(p)

    def test_already_solved(self):
        p = blocks_world_problem([["a", "b"]], [["a", "b"]])
        assert p.is_goal(p.initial)

    def test_ga_solves_small_instance(self):
        d = BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])
        cfg = GAConfig(population_size=80, generations=150, max_len=40, init_length=12)
        outcome = GAPlanner(d, cfg, seed=0).solve()
        assert outcome.solved
        assert Plan(outcome.plan).solves(d.problem)


class TestNavigation:
    def test_construction_validation(self):
        with pytest.raises(ValueError, match="outside"):
            GridNavigationDomain(3, 3, [(5, 5)], [(0, 0)])
        with pytest.raises(ValueError, match="obstacle"):
            GridNavigationDomain(3, 3, [(0, 0)], [(1, 1)], obstacles=[(0, 0)])
        with pytest.raises(ValueError, match="share"):
            GridNavigationDomain(3, 3, [(0, 0), (0, 0)], [(1, 1), (2, 2)])

    def test_moves_respect_bounds_and_obstacles(self):
        d = GridNavigationDomain(3, 3, [(0, 0)], [(2, 2)], obstacles=[(0, 1)])
        ops = d.valid_operations(d.initial_state)
        dirs = {op.direction for op in ops}
        assert dirs == {"south"}  # north/west out of bounds, east blocked

    def test_robots_block_each_other(self):
        d = GridNavigationDomain(1, 3, [(0, 0), (0, 1)], [(0, 2), (0, 1)])
        ops = d.valid_operations(d.initial_state)
        # Robot 0 cannot move east onto robot 1.
        assert NavMove(0, "east") not in ops
        assert NavMove(1, "east") in ops

    def test_goal_fitness_decreases_with_distance(self):
        d = GridNavigationDomain(5, 5, [(0, 0)], [(4, 4)])
        far = d.goal_fitness(((0, 0),))
        near = d.goal_fitness(((4, 3),))
        assert near > far
        assert d.goal_fitness(((4, 4),)) == 1.0

    def test_bfs_finds_shortest_path(self):
        d = GridNavigationDomain(4, 4, [(0, 0)], [(3, 3)])
        r = breadth_first_search(d)
        assert r.solved and r.plan_length == 6  # Manhattan distance

    def test_bfs_detours_around_obstacles(self):
        # Wall splits the top rows; the robot must go around underneath.
        wall = [(0, 1), (1, 1)]
        d = GridNavigationDomain(3, 3, [(0, 0)], [(0, 2)], obstacles=wall)
        r = breadth_first_search(d)
        assert r.solved and r.plan_length == 6  # vs Manhattan distance 2

    def test_two_robot_coordination(self):
        # Robots must swap ends of a 2-row corridor.
        d = GridNavigationDomain(2, 3, [(0, 0), (0, 2)], [(0, 2), (0, 0)])
        r = breadth_first_search(d)
        assert r.solved
        state = d.execute(r.plan)
        assert d.is_goal(state)

    def test_ga_solves_navigation(self):
        d = GridNavigationDomain(4, 4, [(0, 0)], [(3, 3)])
        cfg = GAConfig(population_size=40, generations=60, max_len=40, init_length=10)
        outcome = GAPlanner(d, cfg, seed=1).solve()
        assert outcome.solved


class TestBriefcase:
    def _domain(self):
        return BriefcaseDomain(
            locations=["home", "office", "airport"],
            object_locations={"paycheck": "home", "laptop": "office"},
            goal_locations={"paycheck": "office", "laptop": "home"},
            briefcase_at="home",
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown location"):
            briefcase_problem(["a"], {"x": "zzz"}, {"x": "a"}, "a")
        with pytest.raises(ValueError, match="unknown briefcase"):
            briefcase_problem(["a"], {"x": "a"}, {"x": "a"}, "zzz")
        with pytest.raises(ValueError, match="unknown object"):
            briefcase_problem(["a"], {"x": "a"}, {"y": "a"}, "a")

    def test_bfs_solves_swap(self):
        d = self._domain()
        r = breadth_first_search(d)
        assert r.solved
        assert Plan(r.plan).solves(d.problem)

    def test_goal_fitness_gives_transit_credit(self):
        d = self._domain()
        s0 = d.initial_state
        assert d.goal_fitness(s0) == 0.0
        # Put the paycheck in the briefcase: half credit for one of two goals.
        put_in = d.problem.operation_by_name["put-in(paycheck, home)"]
        s1 = put_in.apply(s0)
        assert d.goal_fitness(s1) == pytest.approx(0.25)

    def test_briefcase_goal_location_counts(self):
        d = BriefcaseDomain(
            locations=["a", "b"],
            object_locations={"x": "a"},
            goal_locations={"x": "b"},
            briefcase_at="a",
            goal_briefcase_at="a",
        )
        r = astar(d, heuristic=goal_gap(d, scale=6.0))
        assert r.solved
        final = d.execute(r.plan)
        assert atom("bc-at", "a") in final  # returned home

    def test_ga_solves_briefcase(self):
        d = self._domain()
        cfg = GAConfig(population_size=60, generations=120, max_len=40, init_length=10)
        outcome = GAPlanner(d, cfg, multiphase=3, seed=2).solve()
        assert outcome.solved
