"""Tests for tables, rendering, and the experiment drivers (scaled)."""

import dataclasses
import math

import pytest

from repro.analysis import (
    ExperimentScale,
    Table,
    figure1,
    figure2,
    figure3,
    hanoi_max_len,
    hanoi_parameter_table,
    profile_call,
    render_hanoi,
    render_tile_board,
    scale_from_env,
    tile_init_length,
    tile_max_len,
    tile_parameter_table,
)
from repro.exp import get_spec, run_inline


class TestTable:
    def test_add_row_and_column(self):
        t = Table("T", ["a", "b"]).add_row(1, 2).add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            Table("T", ["a"]).add_row(1, 2)

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            Table("T", ["a"]).column("z")

    def test_render_contains_everything(self):
        text = Table("Title", ["col"]).add_row(3.14159).render()
        assert "Title" in text and "col" in text and "3.142" in text

    def test_csv_round_trip(self, tmp_path):
        t = Table("T", ["a", "b"]).add_row(1, "x")
        path = tmp_path / "t.csv"
        text = t.to_csv(path)
        assert path.read_text() == text
        assert "a,b" in text and "1,x" in text


class TestRender:
    def test_figure1_has_all_disks_on_a(self):
        fig = figure1()
        assert "=====|=====" in fig  # the size-5 disk
        assert fig.count("=") == 2 * sum(2 * d for d in range(1, 6)) // 2

    def test_figure2_goal_on_b(self):
        lines = figure2().splitlines()
        bottom = lines[-3]  # widest disk row
        width = 11  # column width for 5 disks
        left, mid, right = bottom[:width], bottom[width + 2 : 2 * width + 2], bottom[2 * width + 4 :]
        assert "=" in mid and "=" not in left and "=" not in right

    def test_figure3_shows_both_boards(self):
        fig = figure3()
        assert "(a) initial" in fig and "(b) goal" in fig
        assert "15" in fig and " 1 " in fig

    def test_render_tile_board_validates_length(self):
        with pytest.raises(ValueError):
            render_tile_board((1, 2, 3), 3)

    def test_render_hanoi_deterministic(self):
        a = render_hanoi(((3, 2, 1), (), ()), 3)
        b = render_hanoi(((3, 2, 1), (), ()), 3)
        assert a == b


class TestScaleAndLimits:
    def test_hanoi_max_len(self):
        assert hanoi_max_len(5) == 5 * 31

    def test_tile_max_len(self):
        assert tile_max_len(3) == 162
        assert tile_max_len(4) == 512

    def test_tile_init_length(self):
        assert tile_init_length(3) == round(9 * math.log2(9))
        assert tile_init_length(4) == 64

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert scale_from_env().label == "paper"
        monkeypatch.delenv("REPRO_FULL")
        assert scale_from_env().label == "scaled"

    def test_paper_scale_matches_table1(self):
        s = ExperimentScale.paper()
        assert s.population_size == 200
        assert s.generations_single == 500
        assert s.generations_phase == 100
        assert s.max_phases == 5
        assert s.runs_hanoi == 10 and s.runs_tile == 50


class TestParameterTables:
    def test_table1_contents(self):
        text = hanoi_parameter_table().render()
        assert "200" in text and "500" in text and "Tournament (2)" in text

    def test_table3_contents(self):
        text = tile_parameter_table().render()
        assert "Random / State-aware / Mixed" in text


TINY = ExperimentScale.scaled(
    population_size=30,
    generations_single=40,
    generations_phase=15,
    runs_hanoi=2,
    runs_tile=2,
    hanoi_disks=(3,),
    tile_sizes=(3,),
)


def _spec_table(name, seed):
    """The registered sweep *name* at ``TINY`` scale and base seed *seed*."""
    spec = dataclasses.replace(get_spec(name), base_seed=seed)
    return run_inline(spec, scale=TINY).table()


class TestExperimentDrivers:
    def test_table2_structure_and_shape(self):
        t = _spec_table("table2-hanoi", seed=1)
        assert t.column("GA Type") == ["single-phase", "multi-phase"]
        assert all(0.0 <= f <= 1.0 for f in t.column("Avg Goal Fitness"))
        assert all(n <= 2 for n in t.column("Solved Runs"))

    def test_table4_structure(self):
        t = _spec_table("table4-tile", seed=1)
        assert t.column("Crossover") == ["state-aware", "random", "mixed"]
        assert t.column("Tiles") == [9, 9, 9]
        assert all(time >= 0 for time in t.column("Avg Time (s)"))

    def test_table5_counts_bounded(self):
        t = _spec_table("table5-phases", seed=1)
        for col in ("Random", "State-aware", "Mixed"):
            counts = t.column(col)
            assert sum(counts) <= TINY.runs_tile
            assert all(c >= 0 for c in counts)

    def test_drivers_reproducible(self):
        a = _spec_table("table2-hanoi", seed=3).rows
        b = _spec_table("table2-hanoi", seed=3).rows
        assert a == b


class TestProfiling:
    def test_profile_call_returns_result_and_report(self):
        result, report = profile_call(sum, [1, 2, 3])
        assert result == 6
        assert "cumulative" in report
