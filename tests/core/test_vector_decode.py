"""Edge cases of the vectorised decoder (DESIGN.md §12).

The trajectory-level bit-identity suites live in
``test_vector_equivalence.py``; this file drives :class:`VectorDecoder`
directly into its corners — empty rows, dead-end (zero-valid-op) states,
non-unit operation costs, dirty-prefix resume exactly at row boundaries,
evicted-transition fallback after a kernel reset — and checks that a
domain without a kernel runs on the decode engine.
"""

import numpy as np
import pytest

from repro.core import GAConfig, Individual, make_rng, run_ga
from repro.core.fitness import FitnessFunction
from repro.core.parallel import EvaluationContext, SerialEvaluator
from repro.core.popbuffer import PopulationBuffer
from repro.core.decode_engine import DecodeEngine
from repro.core.vector_decode import VectorDecoder
from repro.domains import GridNavigationDomain, HanoiDomain
from repro.domains.kernels import TableKernel, cached_kernel
from repro.protocol import PlanningDomain
from tests.oracle import ReferenceEvaluator


class TrapChainDomain(PlanningDomain):
    """A line 0 → 1 → … → n with a trap: every inner state can also jump
    to a dead end (state -1, no valid operations).  Small enough for the
    generic :class:`TableKernel`, rich enough to exercise dead-end rows.
    """

    name = "trap-chain"

    def __init__(self, n: int = 6, max_states: int = 200_000) -> None:
        self.n = n
        self._max_states = max_states

    @property
    def initial_state(self) -> int:
        return 0

    def valid_operations(self, state: int):
        if state == -1 or state >= self.n:
            return ()
        return ("step", "trap")

    def apply(self, state: int, op: str) -> int:
        return state + 1 if op == "step" else -1

    def goal_fitness(self, state: int) -> float:
        if state == self.n:
            return 1.0
        if state == -1:
            return 0.0
        return state / (2.0 * self.n)

    def kernel(self):
        return cached_kernel(
            self, lambda d: TableKernel(d, max_states=self._max_states)
        )


class WeightedTrapDomain(TrapChainDomain):
    """Trap chain with a two-step skip and non-unit operation costs, so the
    kernel carries an ``op_cost`` table."""

    name = "weighted-trap"

    def valid_operations(self, state: int):
        if state == -1 or state >= self.n:
            return ()
        return ("step", "trap", "skip")

    def apply(self, state: int, op: str) -> int:
        if op == "trap":
            return -1
        return state + (2 if op == "skip" else 1)

    def operation_cost(self, op: str) -> float:
        return {"step": 1.0, "trap": 0.25, "skip": 2.5}[op]

    def goal_fitness(self, state: int) -> float:
        if state >= self.n:
            return 1.0
        return super().goal_fitness(state)


def _context(domain, truncate=True):
    return EvaluationContext(
        domain=domain,
        start_state=domain.initial_state,
        fitness=FitnessFunction(domain, 0.7, 0.3),
        truncate_at_goal=truncate,
    )


def _engine_evaluator():
    """A serial evaluator held on the object path by its injected engine."""
    return SerialEvaluator(engine=DecodeEngine())


def _buffer_of(genes_rows):
    inds = [Individual(np.asarray(g, dtype=np.float64)) for g in genes_rows]
    return PopulationBuffer.from_individuals(inds, keep_plans=True)


def _decoder(domain):
    kernel = domain.kernel()
    assert kernel is not None
    return VectorDecoder(kernel)


def assert_buffers_identical(a, b):
    np.testing.assert_array_equal(a.total, b.total)
    np.testing.assert_array_equal(a.goal, b.goal)
    np.testing.assert_array_equal(a.cost, b.cost)
    np.testing.assert_array_equal(a.goal_reached, b.goal_reached)
    for pa, pb in zip(a.plans, b.plans):
        assert (pa is None) == (pb is None)
        if pa is not None:
            assert pa.operations == pb.operations
            assert pa.state_keys == pb.state_keys
            assert pa.match_keys == pb.match_keys
            assert pa.used_genes == pb.used_genes
            assert pa.cost == pb.cost
            assert pa.goal_reached == pb.goal_reached


class TestDeadEnds:
    def test_dead_end_rows_match_object_path(self):
        domain = TrapChainDomain(5)
        rng = make_rng(0)
        rows = [rng.random(8) for _ in range(32)]  # many rows walk into the trap
        vec, obj = _buffer_of(rows), _buffer_of(rows)
        SerialEvaluator().evaluate_buffer(vec, _context(domain))
        _engine_evaluator().evaluate_buffer(obj, _context(domain))
        assert_buffers_identical(vec, obj)
        # The trap is reachable: at least one row must have stopped early.
        assert any(p.used_genes < 8 and not p.goal_reached for p in vec.plans)

    def test_immediate_dead_end_uses_no_genes(self):
        # Start in the trap itself: every op count is zero, decode is empty.
        domain = TrapChainDomain(5)
        dec = _decoder(domain)
        ctx = _context(domain)
        ctx.start_state = -1
        dec.bind(ctx)
        arena = np.asarray([0.1, 0.9, 0.5], dtype=np.float64)
        total, gfit, costf, reached, used, plans = dec.decode_rows(
            arena, np.asarray([0]), np.asarray([3]), keep_plans=True
        )
        assert used[0] == 0 and gfit[0] == 0.0 and costf[0] == 1.0
        assert plans[0].operations == () and plans[0].final_state == -1

    def test_full_ga_on_dead_end_domain(self):
        domain = TrapChainDomain(4)
        config = GAConfig(
            population_size=12, generations=6, max_len=16, init_length=6
        )
        on = run_ga(domain, config, make_rng(3))
        off = run_ga(domain, config, make_rng(3), evaluator=_engine_evaluator())
        assert on.history.generations == off.history.generations
        np.testing.assert_array_equal(on.best.genes, off.best.genes)


class TestWeightedCosts:
    @pytest.mark.parametrize("truncate", [True, False])
    def test_non_unit_costs_match_the_oracle(self, truncate):
        domain = WeightedTrapDomain(6)
        assert not domain.kernel().unit_cost
        rng = make_rng(5)
        rows = [rng.random(int(rng.integers(1, 15))) for _ in range(48)]
        vec, ref = _buffer_of(rows), _buffer_of(rows)
        SerialEvaluator().evaluate_buffer(vec, _context(domain, truncate=truncate))
        ReferenceEvaluator().evaluate_buffer(ref, _context(domain, truncate=truncate))
        assert_buffers_identical(vec, ref)


class TestEmptyRows:
    def test_zero_length_row_scores_the_start_state(self):
        domain = HanoiDomain(3)
        dec = _decoder(domain)
        ctx = _context(domain)
        dec.bind(ctx)
        arena = np.asarray([0.5], dtype=np.float64)
        total, gfit, costf, reached, used, plans = dec.decode_rows(
            arena, np.asarray([0, 0]), np.asarray([0, 1]), keep_plans=True
        )
        # Row 0 consumed nothing: fitness of the untouched start state.
        assert used[0] == 0 and costf[0] == 1.0 and not reached[0]
        expected = ctx.fitness(plans[0])
        assert total[0] == expected.total and gfit[0] == expected.goal
        assert plans[0].state_keys == (domain.state_key(domain.initial_state),)
        assert used[1] == 1  # the non-empty neighbour row still walks

    def test_zero_rows_batch(self):
        domain = HanoiDomain(3)
        dec = _decoder(domain)
        dec.bind(_context(domain))
        total, gfit, costf, reached, used, plans = dec.decode_rows(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            keep_plans=True,
        )
        assert total.shape == (0,) and plans == []


class TestPrefixResumeBoundaries:
    def _parent_plan(self, domain, genes):
        dec = _decoder(domain)
        dec.bind(_context(domain))
        arena = np.asarray(genes, dtype=np.float64)
        *_, plans = dec.decode_rows(
            arena, np.asarray([0]), np.asarray([len(genes)]), keep_plans=True
        )
        return dec, arena, plans[0]

    def _fresh(self, domain, arena):
        dec = _decoder(domain)
        dec.bind(_context(domain))
        return dec.decode_rows(
            arena, np.asarray([0]), np.asarray([arena.size]), keep_plans=True
        )

    @pytest.mark.parametrize("dirty", [1, 4, 8])
    def test_resume_matches_full_decode(self, dirty):
        domain = HanoiDomain(3)
        genes = make_rng(7).random(8)
        dec, arena, plan = self._parent_plan(domain, genes)
        before = dec.genes_reused
        out = dec.decode_rows(
            arena,
            np.asarray([0]),
            np.asarray([8]),
            keep_plans=True,
            hints=[(plan, dirty)],
        )
        ref = self._fresh(domain, arena)
        for got, want in zip(out[:5], ref[:5]):
            np.testing.assert_array_equal(got, want)
        assert out[5][0].state_keys == ref[5][0].state_keys
        # dirty == 8 is the row boundary: the whole row replays from the
        # retained walk, clamped to the row length.
        assert dec.genes_reused - before == min(dirty, plan.used_genes, 8)

    def test_parent_stopped_inside_prefix_copies_the_plan(self):
        # truncate_at_goal stops hanoi-2-style short solves early; emulate
        # with a parent whose used_genes < dirty by solving hanoi quickly.
        domain = TrapChainDomain(2)  # 2 steps to goal, rows longer than that
        genes = np.asarray([0.1, 0.1, 0.1, 0.1, 0.1], dtype=np.float64)
        dec, arena, plan = self._parent_plan(domain, genes)
        assert plan.used_genes == 2 and plan.goal_reached
        out = dec.decode_rows(
            arena,
            np.asarray([0]),
            np.asarray([5]),
            keep_plans=True,
            hints=[(plan, 4)],  # dirty beyond the parent's stop point
        )
        assert out[5][0] is plan  # the parent plan IS the child's plan
        ref = self._fresh(domain, arena)
        for got, want in zip(out[:5], ref[:5]):
            np.testing.assert_array_equal(got, want)


class TestEvictedTransitionFallback:
    def test_reset_invalidates_hints_and_falls_back(self):
        # A tiny max_states forces an overflow reset between generations;
        # hints pointing at evicted ids must fall back to a full decode.
        domain = TrapChainDomain(40, max_states=8)
        dec = _decoder(domain)
        dec.bind(_context(domain))
        genes = np.full(12, 0.2, dtype=np.float64)  # always "step": 12 states
        *_, plans = dec.decode_rows(
            genes, np.asarray([0]), np.asarray([12]), keep_plans=True
        )
        plan = plans[0]
        assert dec.kernel.overflowed
        dec.bind(_context(domain))  # bind() resets an overflowed kernel
        assert dec.kernel_resets == 1
        before = dec.prefix_fallbacks
        out = dec.decode_rows(
            genes,
            np.asarray([0]),
            np.asarray([12]),
            keep_plans=True,
            hints=[(plan, 6)],
        )
        assert dec.prefix_fallbacks == before + 1  # id_for_key missed
        ref_dec = _decoder(TrapChainDomain(40))
        ref_dec.bind(_context(TrapChainDomain(40)))
        ref = ref_dec.decode_rows(
            genes, np.asarray([0]), np.asarray([12]), keep_plans=True
        )
        for got, want in zip(out[:5], ref[:5]):
            np.testing.assert_array_equal(got, want)
        assert out[5][0].state_keys == ref[5][0].state_keys

    def test_ga_survives_constant_overflow(self):
        domain = TrapChainDomain(30, max_states=4)
        config = GAConfig(
            population_size=10, generations=5, max_len=12, init_length=6
        )
        on = run_ga(domain, config, make_rng(11))
        off = run_ga(TrapChainDomain(30), config, make_rng(11), evaluator=_engine_evaluator())
        assert on.history.generations == off.history.generations


class TestConfigGuards:
    def test_vector_none_falls_back_without_kernel(self):
        domain = GridNavigationDomain(4, 4, [(0, 0)], [(3, 3)])
        assert domain.kernel() is None
        config = GAConfig(
            population_size=6, generations=2, max_len=8, init_length=4
        )
        evaluator = SerialEvaluator()
        result = run_ga(domain, config, make_rng(0), evaluator=evaluator)
        assert result.generations_run == 2
        assert evaluator.vector_counters() is None  # the object path ran
        assert evaluator.engine_counters() is not None
