"""Tests for the JSONL generation logger."""

import io
import json

import pytest

from repro.core import GAConfig, GARun, make_rng
from repro.obs import GenerationLogger, read_log


class TestGenerationLogger:
    def test_logs_one_record_per_generation(self, tmp_path, hanoi3):
        path = tmp_path / "trace.jsonl"
        cfg = GAConfig(
            population_size=10, generations=5, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        with GenerationLogger(path, run_id="t1") as logger:
            GARun(hanoi3, cfg, make_rng(0)).run(on_generation=logger)
        records = read_log(path)
        assert len(records) == 5
        assert [r["generation"] for r in records] == [0, 1, 2, 3, 4]
        assert all(r["run"] == "t1" for r in records)
        assert all(0.0 <= r["best_goal"] <= 1.0 for r in records)

    def test_never_stops_the_run(self, tmp_path, hanoi3):
        cfg = GAConfig(
            population_size=10, generations=4, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        with GenerationLogger(tmp_path / "t.jsonl") as logger:
            result = GARun(hanoi3, cfg, make_rng(1)).run(on_generation=logger)
        assert result.generations_run == 4

    def test_appends_across_runs(self, tmp_path, hanoi3):
        path = tmp_path / "multi.jsonl"
        cfg = GAConfig(
            population_size=10, generations=2, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        for run_id in ("a", "b"):
            with GenerationLogger(path, run_id=run_id) as logger:
                GARun(hanoi3, cfg, make_rng(2)).run(on_generation=logger)
        assert len(read_log(path)) == 4
        assert len(read_log(path, run_id="a")) == 2

    def test_stream_target(self, hanoi3):
        buf = io.StringIO()
        cfg = GAConfig(
            population_size=10, generations=2, max_len=35, init_length=7,
            stop_on_goal=False,
        )
        logger = GenerationLogger(buf, run_id="s")
        GARun(hanoi3, cfg, make_rng(3)).run(on_generation=logger)
        logger.close()
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(lines) == 2

    def test_creates_parent_dirs(self, tmp_path):
        logger = GenerationLogger(tmp_path / "x" / "y" / "t.jsonl")
        logger.close()
        assert (tmp_path / "x" / "y" / "t.jsonl").exists()

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            GenerationLogger(tmp_path / "t.jsonl", flush_every=0)

    def test_read_log_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"run": "x", "generation": 0}\n\n{"run": "x", "generation": 1}\n')
        assert len(read_log(path)) == 2


class TestDeprecatedShim:
    def test_dropped_from_core_public_api(self):
        import repro.core

        assert "GenerationLogger" not in repro.core.__all__
        assert not hasattr(repro.core, "read_log")
