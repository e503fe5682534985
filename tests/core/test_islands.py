"""Tests for the island-model GA."""

import numpy as np
import pytest

from repro.core import GAConfig, IslandConfig, make_rng, run_islands
from repro.core.parallel import SerialEvaluator
from repro.domains import HanoiDomain


def _cfg(**kw):
    island = dict(
        population_size=20, generations=30, max_len=35, init_length=7,
        stop_on_goal=True,
    )
    island.update(kw.pop("island_kw", {}))
    base = dict(n_islands=3, migration_interval=5, migration_size=2, island=GAConfig(**island))
    base.update(kw)
    return IslandConfig(**base)


class TestConfigValidation:
    def test_requires_island_config(self):
        with pytest.raises(ValueError, match="island config"):
            IslandConfig(n_islands=2, island=None)

    def test_minimum_islands(self):
        with pytest.raises(ValueError):
            _cfg(n_islands=1)

    def test_migration_bounds(self):
        with pytest.raises(ValueError):
            _cfg(migration_interval=0)
        with pytest.raises(ValueError):
            _cfg(migration_size=0)
        with pytest.raises(ValueError):
            _cfg(migration_size=20)  # == island population


class TestPerIslandConfigs:
    def _hetero(self, *pops, migration_size=2):
        per = tuple(
            GAConfig(
                population_size=p, generations=12, max_len=35, init_length=7,
                stop_on_goal=False,
            )
            for p in pops
        )
        return IslandConfig(
            n_islands=len(per), migration_interval=5,
            migration_size=migration_size, island=per[0], per_island=per,
        )

    def test_per_island_length_must_match(self):
        cfg = GAConfig(population_size=20, generations=10, max_len=35, init_length=7)
        with pytest.raises(ValueError, match="per_island must list 3"):
            IslandConfig(n_islands=3, island=cfg, per_island=(cfg, cfg))

    def test_migration_validated_against_smallest_island(self):
        # 8-strong island cannot donate/absorb 8 migrants even though the
        # base island config is much larger.
        with pytest.raises(ValueError, match="smallest island population"):
            self._hetero(40, 8, 40, migration_size=8)
        self._hetero(40, 8, 40, migration_size=7)  # below the floor: fine

    def test_heterogeneous_run_preserves_island_sizes(self, hanoi3):
        cfg = self._hetero(24, 12, 18)
        result = run_islands(hanoi3, cfg, make_rng(6))
        assert len(result.histories) == 3
        for history in result.histories:
            assert len(history) == 12

    def test_heterogeneous_reproducible(self, hanoi3):
        cfg = self._hetero(24, 12, 18)
        a = run_islands(hanoi3, cfg, make_rng(7))
        b = run_islands(hanoi3, cfg, make_rng(7))
        assert np.array_equal(a.best.genes, b.best.genes)
        assert a.best_island == b.best_island


class TestEvaluatorLifetimes:
    def test_factory_failure_closes_built_evaluators(self, hanoi3):
        built, closed = [], []

        def factory():
            if len(built) == 2:
                raise RuntimeError("third evaluator fails")
            evaluator = SerialEvaluator()
            evaluator.close = lambda ev=evaluator: closed.append(ev)
            built.append(evaluator)
            return evaluator

        with pytest.raises(RuntimeError, match="third evaluator fails"):
            run_islands(hanoi3, _cfg(), make_rng(0), evaluator_factory=factory)
        assert closed == built  # both pre-built evaluators released

    def test_mid_migration_exception_closes_all_evaluators(self, hanoi3):
        closed = []

        class Exploding(SerialEvaluator):
            calls = 0

            def evaluate_buffer(self, buffer, context):
                Exploding.calls += 1
                if Exploding.calls > 2:
                    raise RuntimeError("mid-run failure")
                return super().evaluate_buffer(buffer, context)

            def close(self):
                closed.append(self)
                super().close()

        with pytest.raises(RuntimeError, match="mid-run failure"):
            run_islands(hanoi3, _cfg(), make_rng(0), evaluator_factory=Exploding)
        assert len(closed) == 3


class TestRunIslands:
    def test_solves_hanoi3(self, hanoi3):
        result = run_islands(hanoi3, _cfg(), make_rng(0))
        assert result.solved
        final = hanoi3.execute(result.best.decoded.operations)
        assert hanoi3.is_goal(final)

    def test_population_sizes_preserved_across_migration(self, hanoi3):
        cfg = _cfg(island_kw={"stop_on_goal": False, "generations": 12})
        # Patch through a run and verify sizes via histories: every island
        # records its full generation count with a constant population.
        result = run_islands(hanoi3, cfg, make_rng(1))
        for history in result.histories:
            assert len(history) == 12

    def test_early_stop_on_goal(self, hanoi3):
        result = run_islands(hanoi3, _cfg(), make_rng(2))
        if result.solved:
            assert result.generations_run <= 30

    def test_migration_counter(self, hanoi3):
        cfg = _cfg(island_kw={"stop_on_goal": False, "generations": 11}, migration_interval=5)
        result = run_islands(hanoi3, cfg, make_rng(3))
        assert result.migrations == 2  # after generations 5 and 10

    def test_reproducible(self, hanoi3):
        a = run_islands(hanoi3, _cfg(), make_rng(42))
        b = run_islands(hanoi3, _cfg(), make_rng(42))
        assert np.array_equal(a.best.genes, b.best.genes)
        assert a.best_island == b.best_island

    def test_best_island_index_valid(self, hanoi3):
        result = run_islands(hanoi3, _cfg(), make_rng(4))
        assert 0 <= result.best_island < 3

    def test_histories_one_per_island(self, hanoi3):
        result = run_islands(hanoi3, _cfg(), make_rng(5))
        assert len(result.histories) == 3
