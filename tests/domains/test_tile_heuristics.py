"""Tests for linear conflict, pattern databases, and accurate tile fitness."""

import pytest

from repro.core import make_rng
from repro.domains import (
    AccurateTileDomain,
    accurate_tile_fitness,
    build_pattern_database,
    linear_conflict,
    make_disjoint_pdb_heuristic,
    make_linear_conflict_heuristic,
)
from repro.domains.sliding_tile import goal_tuple
from repro.planning.search import astar


def _random_state(domain, seed, steps=40):
    rng = make_rng(seed)
    state = domain.initial_state
    for _ in range(steps):
        ops = domain.valid_operations(state)
        state = domain.apply(state, ops[int(rng.integers(0, len(ops)))])
    return state


class TestLinearConflict:
    def test_zero_at_goal(self, tile3):
        assert linear_conflict(tile3.goal_state, tile3.goal_state, 3) == 0

    def test_dominates_manhattan(self, tile3):
        for seed in range(10):
            s = _random_state(tile3, seed)
            assert linear_conflict(s, tile3.goal_state, 3) >= tile3.manhattan(s)

    def test_detects_row_conflict(self):
        # 2 and 1 swapped in the top row: manhattan 2, conflict adds 2.
        goal = goal_tuple(3)
        state = (2, 1, 3, 4, 5, 6, 7, 8, 0)
        assert linear_conflict(state, goal, 3) == 4

    def test_detects_column_conflict(self):
        goal = goal_tuple(3)
        # Column 0 holds 7, 4, 1 whose goal rows are 2, 1, 0 — fully
        # reversed, so two tiles must leave the column: +4 over Manhattan.
        state = (7, 2, 3, 4, 5, 6, 1, 8, 0)
        assert linear_conflict(state, goal, 3) == 4 + 4

    def test_never_exceeds_true_distance(self, tile3):
        """Admissibility against exact optima from A* + Manhattan."""
        man = lambda s: float(tile3.manhattan(s))
        for seed in range(6):
            s = _random_state(tile3, seed, steps=25)
            optimal = astar(tile3, heuristic=man, start_state=s).plan_length
            assert linear_conflict(s, tile3.goal_state, 3) <= optimal

    def test_admissible_optimal_astar(self, tile3):
        h = make_linear_conflict_heuristic(tile3)
        man = lambda s: float(tile3.manhattan(s))
        r_lc = astar(tile3, heuristic=h)
        r_m = astar(tile3, heuristic=man)
        assert r_lc.plan_length == r_m.plan_length  # both optimal
        assert r_lc.expanded <= r_m.expanded  # lc is at least as informed


class TestPatternDatabase:
    def test_goal_lookup_is_zero(self, tile3):
        db = build_pattern_database(3, [1, 2, 3])
        assert db.lookup(tile3.goal_state) == 0

    def test_lookup_bounds_true_distance(self, tile3):
        db = build_pattern_database(3, [1, 2, 3, 4])
        man = lambda s: float(tile3.manhattan(s))
        for seed in range(5):
            s = _random_state(tile3, seed)
            r = astar(tile3, heuristic=man, start_state=s)
            assert db.lookup(s) <= r.plan_length

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            build_pattern_database(3, [0, 1])
        with pytest.raises(ValueError):
            build_pattern_database(3, [])
        with pytest.raises(ValueError):
            build_pattern_database(3, [9])

    def test_table_size(self):
        # Positions of k pattern tiles among n² cells: n²!/(n²-k)! entries.
        db = build_pattern_database(3, [1, 2])
        assert len(db) == 9 * 8


class TestDisjointPDB:
    def test_admissible_and_optimal(self, tile3):
        h = make_disjoint_pdb_heuristic(tile3)
        man = lambda s: float(tile3.manhattan(s))
        r_pdb = astar(tile3, heuristic=h)
        r_m = astar(tile3, heuristic=man)
        assert r_pdb.plan_length == r_m.plan_length
        assert r_pdb.expanded < r_m.expanded  # strictly more informed here

    def test_dominates_manhattan_on_samples(self, tile3):
        h = make_disjoint_pdb_heuristic(tile3)
        for seed in range(8):
            s = _random_state(tile3, seed)
            assert h(s) >= tile3.manhattan(s) - 1e-9

    def test_partition_must_cover(self, tile3):
        with pytest.raises(ValueError, match="cover"):
            make_disjoint_pdb_heuristic(tile3, partition=[[1, 2], [3, 4]])

    def test_custom_partition(self, tile3):
        h = make_disjoint_pdb_heuristic(tile3, partition=[[1, 2, 3], [4, 5], [6, 7, 8]])
        assert h(tile3.goal_state) == 0.0


class TestAccurateFitness:
    def test_range_and_goal(self, tile3):
        f = accurate_tile_fitness(tile3)
        assert f(tile3.goal_state) == 1.0
        for seed in range(5):
            s = _random_state(tile3, seed)
            assert 0.0 <= f(s) <= 1.0

    def test_accurate_domain_goal_semantics(self):
        d = AccurateTileDomain(3)
        assert d.goal_fitness(d.goal_state) == 1.0
        assert d.is_goal(d.goal_state)
        assert d.goal_fitness(d.initial_state) < 1.0
        assert not d.is_goal(d.initial_state)

    def test_unknown_heuristic_name(self):
        with pytest.raises(ValueError, match="heuristic"):
            AccurateTileDomain(3, "magic")

    def test_pdb_variant_constructs(self):
        d = AccurateTileDomain(3, "pdb")
        assert d.goal_fitness(d.goal_state) == 1.0
