"""Property tests over random grids and pipelines (the whole grid stack)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import make_rng
from repro.grid import GridSimulator, plan_to_activity_graph
from repro.grid.generators import random_grid, random_pipeline
from repro.planning.search import goal_gap, greedy_best_first


class TestRandomGrid:
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_all_machine_pairs_connected(self, seed, n_sites, per_site):
        topo = random_grid(make_rng(seed), n_sites=n_sites, machines_per_site=per_site)
        names = topo.machine_names()
        assert len(names) == n_sites * per_site
        for a in names:
            for b in names:
                assert topo.bandwidth(a, b) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            random_grid(make_rng(0), n_sites=0)


class TestRandomPipeline:
    @given(st.integers(0, 10_000), st.integers(1, 5))
    @example(seed=264, n_stages=5)  # goal-gap greedy lost this one on its plateau
    @settings(max_examples=15, deadline=None)
    def test_generated_pipelines_are_plannable_and_executable(self, seed, n_stages):
        """The headline whole-stack property: every generated pipeline can
        be planned greedily, compiled, and simulated to completion.

        Greedy runs on the domain's relaxed depth: the goal gap is flat
        until the final data type exists, which leaves greedy blind on the
        longer pipelines."""
        rng = make_rng(seed)
        onto, domain = random_pipeline(rng, n_stages=n_stages)
        result = greedy_best_first(domain, domain.relaxed_depth, max_expansions=100_000)
        assert result.solved, f"seed {seed}: pipeline not plannable"
        graph = plan_to_activity_graph(domain, result.plan)
        execution = GridSimulator(onto).execute(graph, domain.initial_state)
        assert execution.success
        assert domain.is_goal(execution.placements)
        assert execution.makespan > 0

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_relaxed_depth_bounds_plans_and_drops_one_step_at_a_time(self, seed, n_stages):
        """The relaxed depth never exceeds a real plan's length, a real
        step lowers it by at most one, and it is zero exactly at the goal."""
        onto, domain = random_pipeline(make_rng(seed), n_stages=n_stages)
        result = greedy_best_first(domain, domain.relaxed_depth, max_expansions=100_000)
        state = domain.initial_state
        depth = domain.relaxed_depth(state)
        assert 0 < depth <= len(result.plan)
        for op in result.plan:
            state = domain.apply(state, op)
            nxt = domain.relaxed_depth(state)
            assert nxt >= depth - 1
            assert (nxt == 0) == domain.is_goal(state)
            depth = nxt
        assert depth == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_goal_fitness_monotone_along_greedy_plan(self, seed):
        """Greedy plans never pass through fitness-1 states before the end
        and the final state always scores exactly 1."""
        rng = make_rng(seed)
        onto, domain = random_pipeline(rng, n_stages=3)
        result = greedy_best_first(
            domain, goal_gap(domain, scale=1000.0), max_expansions=100_000
        )
        assert result.solved
        state = domain.initial_state
        for op in result.plan[:-1]:
            state = domain.apply(state, op)
            assert not domain.is_goal(state)  # greedy stops at first goal
        state = domain.apply(state, result.plan[-1])
        assert domain.goal_fitness(state) == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_ga_makes_progress_on_random_pipelines(self, seed):
        """The GA planner reaches at least half-credit on any generated
        pipeline with a tiny budget (it usually solves outright)."""
        from repro.core import GAConfig, GAPlanner

        rng = make_rng(seed)
        onto, domain = random_pipeline(rng, n_stages=2)
        cfg = GAConfig(population_size=40, generations=30, max_len=16, init_length=6)
        outcome = GAPlanner(domain, cfg, multiphase=3, seed=seed).solve()
        assert outcome.goal_fitness >= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            random_pipeline(make_rng(0), n_stages=0)
