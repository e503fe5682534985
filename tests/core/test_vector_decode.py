"""Edge cases of the vectorised decoder (DESIGN.md §12).

The trajectory-level bit-identity suites live in
``test_vector_equivalence.py``; this file drives :class:`VectorDecoder`
directly into its corners — empty rows, dirty-prefix resume exactly at
row boundaries, a parent that stopped inside the shared prefix — checks
that a domain without a kernel runs on the decode engine, and holds a GA
run to the plan rule: plans (and so resume hints) exist only when the
buffer keeps them.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import GAConfig, GARun, decode, make_rng, run_ga
from repro.core.fitness import FitnessFunction
from repro.core.parallel import EvaluationContext, SerialEvaluator
from repro.core.vector_decode import VectorDecoder
from repro.domains import GridNavigationDomain, HanoiDomain, SlidingTileDomain


def _context(domain, truncate=True):
    return EvaluationContext(
        domain=domain,
        start_state=domain.initial_state,
        fitness=FitnessFunction(domain, 0.7, 0.3),
        truncate_at_goal=truncate,
    )


def _decoder(domain):
    kernel = domain.kernel()
    assert kernel is not None
    return VectorDecoder(kernel)


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
        # truncate_at_goal stops a parent that solves hanoi-2 in its three
        # optimal moves (slots 1, 0, 2), so its used_genes < dirty.
        domain = HanoiDomain(2)
        genes = np.asarray([0.9, 0.1, 0.9, 0.1, 0.1], dtype=np.float64)
        dec, arena, plan = self._parent_plan(domain, genes)
        assert plan.used_genes == 3 and plan.goal_reached
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


def _evaluated_run(domain, crossover, population, generations):
    """A serial run stepped *generations* times, then its population evaluated."""
    config = GAConfig(
        population_size=population, generations=generations, max_len=60,
        init_length=(10, 30), crossover=crossover, stop_on_goal=False,
    )
    evaluator = SerialEvaluator()
    run = GARun(domain, config, make_rng(5), evaluator=evaluator)
    for _ in range(generations):
        run.step()
    run._evaluate_and_record()
    return run, evaluator


def _reference(run, genes):
    return decode(genes, run.domain, run.start_state, truncate_at_goal=True)


class TestPlanRule:
    """A row's plan is built only when the buffer keeps plans."""

    @pytest.mark.parametrize("population", [20, 120])  # scalar and batch walks
    @pytest.mark.parametrize("domain", [HanoiDomain(4), SlidingTileDomain(3)], ids=["hanoi", "tile"])
    def test_random_crossover_builds_no_plans(self, domain, population):
        run, evaluator = _evaluated_run(domain, "random", population, 6)
        assert not run.buffer.keep_plans
        assert all(plan is None for plan in run.buffer.plans)
        assert evaluator.vector_counters()["genes_reused"] == 0
        # The best is decoded lazily, and equals the reference decode.
        assert run.best.decoded == _reference(run, run.best.genes)

    @pytest.mark.parametrize("crossover", ["state-aware", "mixed"])
    def test_state_matching_crossover_keeps_one_plan_per_row(self, crossover):
        run, evaluator = _evaluated_run(HanoiDomain(4), crossover, 20, 6)
        buf = run.buffer
        assert buf.keep_plans
        for i in range(buf.n):
            ref = _reference(run, buf.view(i))
            assert buf.plans[i].match_keys == ref.match_keys
            assert buf.plans[i].operations == ref.operations
        # Offspring still resume from their parents' plans.
        assert evaluator.vector_counters()["genes_reused"] > 0

    def test_random_crossover_retains_no_plans_or_hints(self):
        # tile-4 at the benchmark's shape: plans and hints held about 3 MB
        # after 13 generations when every row kept its plan.
        config = GAConfig(
            population_size=200, generations=13, max_len=512, init_length=128,
            stop_on_goal=False,
        )
        run = GARun(SlidingTileDomain(4), config, make_rng(20030422), evaluator=SerialEvaluator())
        run.step()  # loads every module the run uses before tracing starts
        tracemalloc.start()
        try:
            for _ in range(12):
                run.step()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.5e6
