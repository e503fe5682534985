"""Tests for the fitness function (paper equations 2 and 4)."""

import pytest

from repro.core import FitnessFunction, cost_fitness, decode
from repro.core.encoding import encode_operations
from repro.domains import HanoiDomain, optimal_hanoi_moves


class TestCostFitness:
    def test_empty_plan_scores_one(self):
        assert cost_fitness(0.0) == 1.0

    def test_monotone_decreasing(self):
        values = [cost_fitness(c) for c in (0, 1, 5, 100)]
        assert values == sorted(values, reverse=True)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            cost_fitness(-1.0)

    def test_unit_cost_formula(self):
        assert cost_fitness(9.0) == pytest.approx(0.1)


class TestFitnessFunction:
    def _decoded(self, domain, ops):
        genes = encode_operations(domain, domain.initial_state, ops)
        return decode(genes, domain, domain.initial_state, truncate_at_goal=False)

    def test_weights_validated(self):
        domain = HanoiDomain(3)
        with pytest.raises(ValueError):
            FitnessFunction(domain, goal_weight=0.8, cost_weight=0.1)
        with pytest.raises(ValueError):
            FitnessFunction(domain, goal_weight=1.2, cost_weight=-0.2)

    def test_weighted_combination(self):
        domain = HanoiDomain(3)
        fn = FitnessFunction(domain, goal_weight=0.9, cost_weight=0.1)
        d = self._decoded(domain, optimal_hanoi_moves(3))
        result = fn(d)
        assert result.goal == pytest.approx(1.0)
        assert result.cost == pytest.approx(1.0 / 8.0)
        assert result.total == pytest.approx(0.9 * 1.0 + 0.1 / 8.0)
        assert result.goal_reached
        assert result.match == 1.0

    def test_empty_plan_fitness(self):
        domain = HanoiDomain(3)
        fn = FitnessFunction(domain)
        d = self._decoded(domain, [])
        result = fn(d)
        assert result.goal == pytest.approx(0.0)  # nothing on stake B
        assert result.cost == 1.0
        assert not result.goal_reached

    def test_match_fitness_always_one(self, rng):
        domain = HanoiDomain(4)
        fn = FitnessFunction(domain)
        d = decode(rng.random(20), domain, domain.initial_state)
        assert fn(d).match == 1.0

    def test_all_goal_weight(self):
        domain = HanoiDomain(3)
        fn = FitnessFunction(domain, goal_weight=1.0, cost_weight=0.0)
        d = self._decoded(domain, optimal_hanoi_moves(3))
        assert fn(d).total == pytest.approx(1.0)

    def test_domain_fitness_out_of_range_detected(self):
        class Bad(HanoiDomain):
            def goal_fitness(self, state):
                return 2.0

        fn = FitnessFunction(Bad(3))
        domain = HanoiDomain(3)
        d = self._decoded(domain, [])
        with pytest.raises(ValueError, match="outside"):
            fn(d)
