"""Integration tests: whole-stack flows across packages."""

import numpy as np

from repro.analysis import crossover_on_hanoi, maxlen_sweep, phase_budget_sweep, planner_comparison, seeding_study, weight_sweep
from repro.analysis.experiments import ExperimentScale
from repro.core import GAConfig, GAPlanner, MultiPhaseConfig, make_rng, run_multiphase
from repro.domains import HanoiDomain, SlidingTileDomain
from repro.grid import (
    CoordinationService,
    GridEvent,
    GridSimulator,
    greedy_grid_planner,
    imaging_pipeline,
    plan_to_activity_graph,
)
from repro.planning.search import breadth_first_search

TINY = ExperimentScale.scaled(
    population_size=24,
    generations_single=30,
    generations_phase=10,
    runs_hanoi=2,
    runs_tile=2,
    hanoi_disks=(3,),
    tile_sizes=(3,),
)


class TestGAvsOptimal:
    def test_ga_plan_is_valid_but_longer_than_optimal(self):
        """GA finds valid plans; classical search certifies the optimum."""
        domain = HanoiDomain(4)
        cfg = GAConfig(population_size=80, generations=150, max_len=75, init_length=15)
        outcome = GAPlanner(domain, cfg, multiphase=5, seed=0).solve()
        assert outcome.solved
        optimal = breadth_first_search(domain)
        assert outcome.plan_length >= optimal.plan_length == 15

    def test_ga_tile_plan_executes_to_goal(self):
        domain = SlidingTileDomain(3)
        cfg = GAConfig(population_size=100, generations=60, max_len=162, init_length=28)
        outcome = GAPlanner(domain, cfg, multiphase=5, seed=1).solve()
        assert outcome.solved
        assert domain.is_goal(domain.execute(outcome.plan))


class TestHanoiShapeAtSmallScale:
    def test_multiphase_dominates_single_phase(self):
        """Table 2's headline shape on a 5-disk instance with equal budget."""
        domain = HanoiDomain(5)
        single = GAConfig(
            population_size=60, generations=100, max_len=155, init_length=31,
            stop_on_goal=False,
        )
        results_single, results_multi = [], []
        for seed in range(3):
            from repro.core import run_ga

            r = run_ga(domain, single, make_rng(seed))
            results_single.append(r.best.fitness.goal)
            mp = MultiPhaseConfig(
                max_phases=5, phase=single.replace(generations=20)
            )
            m = run_multiphase(domain, mp, make_rng(100 + seed))
            results_multi.append(m.goal_fitness)
        assert np.mean(results_multi) >= np.mean(results_single) - 0.15

    def test_harder_instances_score_lower(self):
        """Goal fitness decreases as the problem scales (Table 2/4 shape)."""
        scores = []
        for n in (3, 6):
            domain = HanoiDomain(n)
            cfg = GAConfig(
                population_size=40, generations=40,
                max_len=5 * (2**n - 1), init_length=2**n - 1,
            )
            outcome = GAPlanner(domain, cfg, seed=5).solve()
            scores.append(outcome.goal_fitness)
        assert scores[0] > scores[1]


class TestGridEndToEnd:
    def test_ga_plan_compiles_and_simulates(self):
        onto, domain = imaging_pipeline()
        cfg = GAConfig(population_size=60, generations=50, max_len=20, init_length=8)
        outcome = GAPlanner(domain, cfg, multiphase=3, seed=2).solve()
        assert outcome.solved
        graph = plan_to_activity_graph(domain, outcome.plan)
        result = GridSimulator(onto).execute(graph, domain.initial_state)
        assert result.success
        assert domain.is_goal(result.placements)

    def test_overload_makes_replanning_win(self):
        """The paper's motivating scenario: the chosen site degrades; a
        coordination service that replans still completes."""
        onto, domain = imaging_pipeline()
        svc = CoordinationService(onto, greedy_grid_planner(), max_replans=2)
        events = [
            GridEvent(time=1.0, kind="fail", machine="hpc-1"),
            GridEvent(time=1.0, kind="fail", machine="hpc-2"),
        ]
        report = svc.run(domain, events=events)
        assert report.success
        assert report.replans >= 1


class TestAblationDrivers:
    def test_crossover_on_hanoi_runs(self):
        t = crossover_on_hanoi(TINY, seed=1, n_disks=3)
        assert len(t.rows) == 3

    def test_maxlen_sweep_runs(self):
        t = maxlen_sweep(TINY, seed=1, n_disks=3, multipliers=(1, 5))
        assert t.column("MaxLen") == [7, 35]

    def test_weight_sweep_runs(self):
        t = weight_sweep(TINY, seed=1, n_disks=3, goal_weights=(0.9, 1.0))
        assert len(t.rows) == 2

    def test_phase_budget_sweep_runs(self):
        t = phase_budget_sweep(TINY, seed=1, n_disks=3, splits=(1, 2))
        assert t.column("Phases") == [1, 2]

    def test_seeding_study_runs(self):
        # Note: seeding is not guaranteed to help (the paper's [22] reports
        # that retaining randomness matters), so only structure is asserted.
        t = seeding_study(TINY, seed=1, n_disks=3, seed_fractions=(0.0, 0.25))
        assert t.column("Seed Fraction") == [0.0, 0.25]
        assert all(0 <= s <= 2 for s in t.column("Solved Runs"))

    def test_planner_comparison_runs(self):
        t = planner_comparison(TINY, seed=1, hanoi_disks=3, tile_n=3)
        assert len(t.rows) == 12  # 6 planners × 2 domains
        solved = dict(zip(zip(t.column("Domain"), t.column("Planner")), t.column("Solved")))
        assert solved[("hanoi-3", "BFS")] and solved[("hanoi-3", "A*")]
