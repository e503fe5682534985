"""Tests for GA checkpoint save/restore."""

import numpy as np
import pytest

from repro.core import GAConfig, GARun, SerialEvaluator, make_rng
from repro.core.checkpoint import capture, load_checkpoint, restore_run, save_checkpoint
from repro.domains import HanoiDomain


def _fresh_run(seed=0, **cfg_kw):
    base = dict(population_size=10, generations=20, max_len=35, init_length=7)
    base.update(cfg_kw)
    return GARun(HanoiDomain(3), GAConfig(**base), make_rng(seed))


class _CountingEvaluator(SerialEvaluator):
    """A serial evaluator that counts its ``evaluate_buffer`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def evaluate_buffer(self, buffer, context):
        self.calls += 1
        super().evaluate_buffer(buffer, context)


class TestCheckpoint:
    def test_round_trip_resumes_identically(self, tmp_path):
        # Run A: 6 steps straight through.
        run_a = _fresh_run(seed=1)
        for _ in range(3):
            run_a.step()
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(run_a, path)
        for _ in range(3):
            run_a.step()

        # Run B: restore at step 3 and continue.
        run_b = restore_run(_fresh_run(seed=999), load_checkpoint(path))
        assert run_b.generation == 3
        for _ in range(3):
            run_b.step()

        stats_a = run_a.history.generations[-1]
        stats_b = run_b.history.generations[-1]
        assert stats_a.best_total == pytest.approx(stats_b.best_total)
        assert stats_a.mean_total == pytest.approx(stats_b.mean_total)

    def test_population_size_mismatch_rejected(self, tmp_path):
        run = _fresh_run()
        run.step()
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(run, path)
        other = _fresh_run(population_size=20)
        with pytest.raises(ValueError, match="population size"):
            restore_run(other, load_checkpoint(path))

    def test_capture_preserves_best(self):
        run = _fresh_run()
        for _ in range(5):
            run.step()
        ckpt = capture(run)
        assert ckpt.best_genes is not None
        assert np.array_equal(ckpt.best_genes, run.best.genes)

    def test_restore_evaluates_nothing_on_the_run_evaluator(self, tmp_path):
        run = _fresh_run(seed=4)
        for _ in range(4):
            run.step()
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(run, path)
        counting = _CountingEvaluator()
        fresh = GARun(HanoiDomain(3), run.config, make_rng(0), evaluator=counting)
        restored = restore_run(fresh, load_checkpoint(path))
        assert counting.calls == 0
        assert np.array_equal(restored.best.genes, run.best.genes)
        assert restored.best.fitness == run.best.fitness
        assert restored.best.decoded.operations == run.best.decoded.operations

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        import pickle

        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(ValueError, match="Checkpoint"):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        run = _fresh_run()
        run.step()
        ckpt = capture(run)
        ckpt.version = 999
        import pickle

        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps(ckpt))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_creates_parent_dirs(self, tmp_path):
        run = _fresh_run()
        run.step()
        path = tmp_path / "a" / "b" / "ckpt.pkl"
        save_checkpoint(run, path)
        assert path.exists()
