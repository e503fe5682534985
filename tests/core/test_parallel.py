"""Tests for the evaluation strategies (serial and process-pool)."""

import numpy as np
import pytest

from repro.core import (
    EvaluationContext,
    FitnessFunction,
    ProcessPoolEvaluator,
    SerialEvaluator,
    make_rng,
)
from repro.core.popbuffer import PopulationBuffer
from repro.domains import BlocksWorldDomain, HanoiDomain


def _context(domain):
    return EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))


def _random_buffer(rng, n, length):
    return PopulationBuffer.from_genomes([rng.random(length) for _ in range(n)])


class _FailingFitness(FitnessFunction):
    """Scores two plans, then raises."""

    def __init__(self, domain):
        super().__init__(domain)
        self.calls = 0

    def __call__(self, decoded):
        self.calls += 1
        if self.calls > 2:
            raise RuntimeError("batch failed")
        return super().__call__(decoded)


class TestListEvaluate:
    """``evaluate_buffer`` writes each pending row's result into the
    buffer, and only once the whole batch succeeded."""

    def test_writes_results_back(self, hanoi3, rng):
        ctx = _context(hanoi3)
        buffer = _random_buffer(rng, 4, 10)
        SerialEvaluator().evaluate_buffer(buffer, ctx)
        for i in range(buffer.n):
            expected = ctx.decode_genes(buffer.view(i))
            assert buffer.plans[i].operations == expected.operations
            assert buffer.fitness_result(i) == ctx.fitness(expected)

    def test_failed_batch_writes_nothing(self, rng):
        # Blocks World decodes on the engine, which scores row by row.
        domain = BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])
        ctx = EvaluationContext(domain, domain.initial_state, _FailingFitness(domain))
        buffer = _random_buffer(rng, 4, 10)
        with pytest.raises(RuntimeError, match="batch failed"):
            SerialEvaluator().evaluate_buffer(buffer, ctx)
        assert ctx.fitness.calls == 3
        assert not buffer.evaluated.any()
        assert np.isnan(buffer.total).all()
        assert all(plan is None for plan in buffer.plans)


class TestSerialEvaluator:
    def test_fills_fitness_and_decoded(self, hanoi3, rng):
        buffer = _random_buffer(rng, 5, 10)
        SerialEvaluator().evaluate_buffer(buffer, _context(hanoi3))
        assert buffer.evaluated.all()
        assert all(plan is not None for plan in buffer.plans)

    def test_skips_already_evaluated(self, hanoi3, rng):
        buffer = _random_buffer(rng, 1, 10)
        ev = SerialEvaluator()
        ctx = _context(hanoi3)
        ev.evaluate_buffer(buffer, ctx)
        marker = buffer.plans[0]
        ev.evaluate_buffer(buffer, ctx)
        assert buffer.plans[0] is marker  # untouched

    def test_cache_reset_on_domain_change(self, rng):
        ev = SerialEvaluator()
        for domain in (HanoiDomain(3), HanoiDomain(4)):
            buffer = _random_buffer(rng, 1, 8)
            ev.evaluate_buffer(buffer, _context(domain))
            assert buffer.evaluated[0]

    def test_context_manager(self, hanoi3, rng):
        with SerialEvaluator() as ev:
            buffer = _random_buffer(rng, 1, 5)
            ev.evaluate_buffer(buffer, _context(hanoi3))
        assert buffer.evaluated[0]


class TestProcessPoolEvaluator:
    def test_matches_serial_results(self, hanoi3, rng):
        buf_a = _random_buffer(rng, 8, 12)
        buf_b = PopulationBuffer.from_genomes([buf_a.view(i) for i in range(buf_a.n)])
        ctx = _context(hanoi3)
        SerialEvaluator().evaluate_buffer(buf_a, ctx)
        with ProcessPoolEvaluator(ctx, processes=2) as ev:
            ev.evaluate_buffer(buf_b, ctx)
        for i in range(buf_a.n):
            assert buf_a.fitness_result(i) == buf_b.fitness_result(i)
            assert buf_a.plans[i].operations == buf_b.plans[i].operations

    @pytest.mark.parametrize("keep_plans", [True, False])
    @pytest.mark.parametrize("domain_name", ["hanoi3", "blocks"])
    def test_scattered_pending_rows_land_on_their_rows(self, domain_name, keep_plans):
        # Hanoi-3 decodes on the workers' vector decoder, Blocks World on
        # their engine.  Pending rows are scattered and of mixed length, so
        # every chunk packs rows from non-adjacent arena slices.
        domain = (
            HanoiDomain(3)
            if domain_name == "hanoi3"
            else BlocksWorldDomain([["a", "b", "c"]], [["c", "b", "a"]])
        )
        ctx = _context(domain)
        rng = make_rng(31)
        genomes = [rng.random(int(rng.integers(1, 20))) for _ in range(30)]
        buffer = PopulationBuffer.from_genomes(genomes, keep_plans=keep_plans)
        done = [i for i in range(30) if i % 3 == 1]
        for i in done:
            decoded = ctx.decode_genes(buffer.view(i))
            buffer.set_result(i, "kept", ctx.fitness(decoded))
        with ProcessPoolEvaluator(ctx, processes=2) as ev:
            ev.evaluate_buffer(buffer, ctx)
        assert buffer.evaluated.all()
        for i in range(30):
            decoded = ctx.decode_genes(buffer.view(i))
            assert buffer.fitness_result(i) == ctx.fitness(decoded)
            if i in done:
                assert buffer.plans[i] == "kept"
            elif keep_plans:
                assert buffer.plans[i].operations == decoded.operations
            else:
                assert buffer.plans[i] is None

    def test_rejects_foreign_context(self, hanoi3, rng):
        ctx = _context(hanoi3)
        other = _context(HanoiDomain(4))
        with ProcessPoolEvaluator(ctx, processes=1) as ev:
            with pytest.raises(ValueError, match="bound to the context"):
                ev.evaluate_buffer(_random_buffer(rng, 1, 5), other)

    def test_empty_and_already_evaluated(self, hanoi3, rng):
        ctx = _context(hanoi3)
        buffer = _random_buffer(rng, 1, 5)
        SerialEvaluator().evaluate_buffer(buffer, ctx)
        marker = buffer.plans[0]
        empty = np.zeros(0, dtype=np.int64)
        with ProcessPoolEvaluator(ctx, processes=1) as ev:
            ev.evaluate_buffer(PopulationBuffer(np.zeros(0), empty, empty), ctx)
            ev.evaluate_buffer(buffer, ctx)  # nothing pending
        assert buffer.plans[0] is marker

    @pytest.mark.parametrize("processes", [0, -2])
    def test_bad_process_count(self, processes):
        # Rejected at construction, before any pool exists: 0 used to mean
        # "all CPUs" and a negative count failed only inside evaluate().
        with pytest.raises(ValueError, match="processes must be >= 1"):
            ProcessPoolEvaluator(processes=processes)
