"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import read_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "hanoi"])
        assert args.size == 5 and args.phases == 5 and args.crossover == "random"

    def test_bad_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "rubik"])

    def test_table_number_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])


class TestCommands:
    def test_solve_hanoi(self, capsys):
        rc = main([
            "solve", "hanoi", "--size", "3", "--population", "40",
            "--generations", "40", "--phases", "3", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solved:        True" in out

    def test_solve_single_phase_with_plan(self, capsys):
        rc = main([
            "solve", "hanoi", "--size", "3", "--population", "80",
            "--generations", "150", "--phases", "1", "--seed", "0", "--show-plan",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "move(" in out

    def test_figures(self, capsys):
        for n, marker in ((1, "====="), (2, "====="), (3, "(b) goal")):
            assert main(["figure", str(n)]) == 0
            assert marker in capsys.readouterr().out

    def test_parameter_tables(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Population size" in capsys.readouterr().out
        assert main(["table", "3"]) == 0
        assert "Crossover type" in capsys.readouterr().out

    @pytest.fixture
    def tiny_scale(self, monkeypatch):
        """Run ``repro table`` at a scale of seconds, whatever its flags."""
        from repro.analysis import ExperimentScale

        tiny = ExperimentScale.scaled(
            population_size=20,
            generations_single=15,
            generations_phase=5,
            runs_hanoi=1,
            runs_tile=1,
            hanoi_disks=(3,),
            tile_sizes=(3,),
        )
        monkeypatch.setattr("repro.cli._scale", lambda args: tiny)
        return tiny

    def test_trial_tables_print_the_registered_sweeps(self, tiny_scale, capsys):
        from repro.exp import run_inline

        for number, name in ((2, "table2-hanoi"), (5, "table5-phases")):
            assert main(["table", str(number)]) == 0
            expected = str(run_inline(name, scale=tiny_scale).table())
            assert capsys.readouterr().out == expected + "\n"

        assert main(["table", "4"]) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = str(run_inline("table4-tile", scale=tiny_scale).table()).splitlines()
        assert len(printed) == len(expected)
        for got, want in zip(printed, expected):
            # Every cell but the last, ``Avg Time (s)``, is deterministic.
            assert got.rsplit("|", 1)[0] == want.rsplit("|", 1)[0]

    def test_trial_table_reports_failed_trials(self, tiny_scale, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.exp.paper.run_single_record", broken)
        assert main(["table", "2"]) == 1
        captured = capsys.readouterr()
        assert "multi-phase" in captured.out
        assert "single-phase" in captured.err and "boom" in captured.err

    def test_schedule_command(self, capsys):
        rc = main(["schedule", "--tasks", "24", "--machines", "4", "--generations", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "consistent" in out and "Min-min" in out


class TestObservabilityFlags:
    SOLVE = [
        "solve", "hanoi", "--size", "3", "--population", "40",
        "--generations", "30", "--phases", "2", "--seed", "0",
    ]

    def test_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        rc = main([*self.SOLVE, "--trace", str(trace), "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        # The trace parses back into typed events covering the run.
        events = read_trace(trace)
        kinds = {e.kind for e in events}
        assert {"phase-start", "generation", "evaluation-batch"} <= kinds
        # The metrics summary carries the headline derived rates.  Hanoi
        # has a kernel, so the default run takes the vectorised decode path
        # and reports its throughput instead of object-engine cache rates.
        assert "evals_per_sec" in out
        assert "vector_genes_per_sec" in out

    def test_progress_goes_to_stderr(self, capsys):
        rc = main([*self.SOLVE, "--progress"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "gen" in captured.err

    def test_trace_on_schedule_subcommand(self, tmp_path):
        trace = tmp_path / "sched.jsonl"
        rc = main([
            "schedule", "--tasks", "16", "--machines", "4",
            "--generations", "5", "--trace", str(trace),
        ])
        assert rc == 0
        events = read_trace(trace, kind="scheduler-generation")
        # One GA run per consistency class, 5 generations each.
        assert [e.generation for e in events] == list(range(5)) * 3

    def test_solve_mode_flags(self, capsys):
        rc = main([
            "solve", "hanoi", "--size", "3", "--population", "40",
            "--generations", "40", "--seed", "0",
            "--mode", "islands", "--islands", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode:          islands" in out
