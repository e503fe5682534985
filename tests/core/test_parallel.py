"""Tests for the evaluation strategies (serial and process-pool)."""

import numpy as np
import pytest

from repro.core import (
    EvaluationContext,
    FitnessFunction,
    Individual,
    ProcessPoolEvaluator,
    SerialEvaluator,
)
from repro.domains import HanoiDomain


def _context(domain):
    return EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))


class TestSerialEvaluator:
    def test_fills_fitness_and_decoded(self, hanoi3, rng):
        pop = [Individual.random(10, rng) for _ in range(5)]
        SerialEvaluator().evaluate(pop, _context(hanoi3))
        assert all(ind.is_evaluated for ind in pop)

    def test_skips_already_evaluated(self, hanoi3, rng):
        pop = [Individual.random(10, rng)]
        ev = SerialEvaluator()
        ctx = _context(hanoi3)
        ev.evaluate(pop, ctx)
        marker = pop[0].fitness
        ev.evaluate(pop, ctx)
        assert pop[0].fitness is marker  # untouched

    def test_cache_reset_on_domain_change(self, rng):
        ev = SerialEvaluator()
        for domain in (HanoiDomain(3), HanoiDomain(4)):
            pop = [Individual.random(8, rng)]
            ev.evaluate(pop, _context(domain))
            assert pop[0].is_evaluated

    def test_context_manager(self, hanoi3, rng):
        with SerialEvaluator() as ev:
            pop = [Individual.random(5, rng)]
            ev.evaluate(pop, _context(hanoi3))
        assert pop[0].is_evaluated


class TestProcessPoolEvaluator:
    def test_matches_serial_results(self, hanoi3, rng):
        pop_a = [Individual.random(12, rng) for _ in range(8)]
        pop_b = [ind.copy() for ind in pop_a]
        for ind in pop_b:
            ind.decoded = None
            ind.fitness = None
        ctx = _context(hanoi3)
        SerialEvaluator().evaluate(pop_a, ctx)
        with ProcessPoolEvaluator(ctx, processes=2, chunk_size=3) as ev:
            ev.evaluate(pop_b, ctx)
        for a, b in zip(pop_a, pop_b):
            assert a.fitness.total == pytest.approx(b.fitness.total)
            assert a.decoded.operations == b.decoded.operations

    def test_rejects_foreign_context(self, hanoi3, rng):
        ctx = _context(hanoi3)
        other = _context(HanoiDomain(4))
        with ProcessPoolEvaluator(ctx, processes=1) as ev:
            with pytest.raises(ValueError, match="bound to the context"):
                ev.evaluate([Individual.random(5, rng)], other)

    def test_empty_and_already_evaluated(self, hanoi3, rng):
        ctx = _context(hanoi3)
        pop = [Individual.random(5, rng)]
        SerialEvaluator().evaluate(pop, ctx)
        with ProcessPoolEvaluator(ctx, processes=1) as ev:
            ev.evaluate([], ctx)
            ev.evaluate(pop, ctx)  # nothing pending
        assert pop[0].is_evaluated

    def test_bad_chunk_size(self, hanoi3):
        with pytest.raises(ValueError):
            ProcessPoolEvaluator(_context(hanoi3), chunk_size=0)

    @pytest.mark.parametrize("processes", [0, -2])
    def test_bad_process_count(self, processes):
        # Rejected at construction, before any pool exists: 0 used to mean
        # "all CPUs" and a negative count failed only inside evaluate().
        with pytest.raises(ValueError, match="processes must be >= 1"):
            ProcessPoolEvaluator(processes=processes)
