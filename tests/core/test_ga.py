"""Tests for the single-phase GA engine."""

import numpy as np
import pytest

from repro.core import GAConfig, GARun, initial_population, make_rng, run_ga


class TestInitialPopulation:
    def test_size_and_length(self, rng):
        cfg = GAConfig(population_size=10, max_len=50, init_length=20)
        pop = initial_population(cfg, rng)
        assert pop.n == 10
        assert (pop.lengths == 20).all()

    def test_length_range_sampled(self, rng):
        cfg = GAConfig(population_size=50, max_len=50, init_length=(5, 15))
        pop = initial_population(cfg, rng)
        lengths = set(pop.lengths.tolist())
        assert lengths <= set(range(5, 16))
        assert len(lengths) > 3  # actually varied

    def test_seeds_included_first(self, rng):
        cfg = GAConfig(population_size=5, max_len=50, init_length=10)
        seed = np.full(7, 0.5)
        pop = initial_population(cfg, rng, seeds=[seed])
        assert pop.n == 5
        assert np.array_equal(pop.view(0), seed)

    def test_too_many_seeds_rejected(self, rng):
        cfg = GAConfig(population_size=2, max_len=50, init_length=10)
        seeds = [rng.random(3) for _ in range(3)]
        with pytest.raises(ValueError):
            initial_population(cfg, rng, seeds=seeds)


class TestGARun:
    def test_max_len_required(self, hanoi3, rng):
        with pytest.raises(ValueError, match="max_len"):
            GARun(hanoi3, GAConfig(), rng)

    def test_step_returns_stats_and_advances(self, hanoi3, rng, small_config):
        run = GARun(hanoi3, small_config, rng)
        s0 = run.step()
        assert s0.generation == 0
        assert run.generation == 1
        s1 = run.step()
        assert s1.generation == 1

    def test_population_size_constant(self, hanoi3, rng, small_config):
        run = GARun(hanoi3, small_config, rng)
        for _ in range(5):
            run.step()
            assert run.buffer.n == small_config.population_size

    def test_solves_hanoi3(self, hanoi3):
        cfg = GAConfig(
            population_size=50, generations=100, max_len=35, init_length=7
        )
        result = run_ga(hanoi3, cfg, make_rng(0))
        assert result.solved
        assert result.best.decoded.goal_reached
        # Verify the plan actually works by replaying it.
        final = hanoi3.execute(result.best.decoded.operations)
        assert hanoi3.is_goal(final)

    def test_stop_on_goal_halts_early(self, hanoi3):
        cfg = GAConfig(
            population_size=50, generations=500, max_len=35, init_length=7, stop_on_goal=True
        )
        result = run_ga(hanoi3, cfg, make_rng(1))
        assert result.solved
        assert result.generations_run < 500
        assert result.solved_at_generation is not None

    def test_no_stop_on_goal_runs_full_budget(self, hanoi3):
        cfg = GAConfig(
            population_size=30, generations=10, max_len=35, init_length=7, stop_on_goal=False
        )
        result = run_ga(hanoi3, cfg, make_rng(2))
        assert result.generations_run == 10
        assert len(result.history) == 10

    def test_best_tracked_across_generations(self, hanoi3, rng, small_config):
        run = GARun(hanoi3, small_config, rng)
        bests = []
        for _ in range(10):
            run.step()
            bests.append(run.best.sort_key())
        # best-so-far is monotone non-decreasing
        assert bests == sorted(bests)

    def test_reproducible_with_same_seed(self, hanoi3, small_config):
        r1 = run_ga(hanoi3, small_config, make_rng(99))
        r2 = run_ga(hanoi3, small_config, make_rng(99))
        assert np.array_equal(r1.best.genes, r2.best.genes)
        assert r1.best.fitness.total == r2.best.fitness.total

    def test_lengths_never_exceed_max_len(self, hanoi3, rng):
        cfg = GAConfig(population_size=20, generations=15, max_len=20, init_length=20)
        run = GARun(hanoi3, cfg, rng)
        for _ in range(15):
            run.step()
            assert (run.buffer.lengths <= 20).all()

    def test_custom_start_state(self, hanoi3, rng, small_config):
        # Start one move from the goal: trivially solvable in generation 0.
        near_goal = ((1,), (3, 2), ())
        result = run_ga(hanoi3, small_config, rng, start_state=near_goal)
        assert result.solved
        assert result.solved_at_generation == 0

    def test_elitism_keeps_best(self, hanoi3, rng):
        cfg = GAConfig(
            population_size=20, generations=10, max_len=35, init_length=7,
            elitism=2, stop_on_goal=False,
        )
        run = GARun(hanoi3, cfg, rng)
        prev_best = None
        for _ in range(10):
            stats = run.step()
            if prev_best is not None:
                assert stats.best_total >= prev_best - 1e-12
            prev_best = stats.best_total

    def test_on_generation_callback(self, hanoi3, rng, small_config):
        seen = []
        GARun(hanoi3, small_config.replace(generations=5, stop_on_goal=False), rng).run(
            on_generation=seen.append
        )
        assert [s.generation for s in seen] == [0, 1, 2, 3, 4]

    def test_all_crossovers_run(self, hanoi3):
        for kind in ("random", "state-aware", "mixed"):
            cfg = GAConfig(
                population_size=20, generations=5, max_len=35, init_length=7,
                crossover=kind, stop_on_goal=False,
            )
            result = run_ga(hanoi3, cfg, make_rng(5))
            assert result.generations_run == 5
