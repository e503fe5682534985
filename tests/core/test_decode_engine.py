"""Tests for the incremental decode engine (DESIGN.md §9).

The engine's contract is *bit-identical* equivalence with the naive decode
path; these tests pin that down layer by layer (transition memoisation,
dirty-prefix resume, cache lifetime) plus the eviction / pinning
behaviour of the bounded tables, and the service's fitness memo in front
of an engine.
"""

import numpy as np
import pytest

from repro.core import GAConfig, make_rng, run_ga
from repro.core.decode_engine import DecodeEngine, TransitionCache
from repro.core.encoding import DecodeCache, decode
from repro.core.fitness import FitnessFunction
from repro.core.parallel import EvaluationContext, FitnessMemo, SerialEvaluator
from repro.core.popbuffer import PopulationBuffer
from repro.domains import HanoiDomain
from tests.oracle import (
    RefIndividual,
    ReferenceEvaluator,
    random_crossover,
    uniform_reset_mutation,
)


def assert_plans_identical(a, b):
    """Bit-identical DecodedPlan comparison (cost compared exactly, not approx)."""
    assert a.operations == b.operations
    assert a.state_keys == b.state_keys
    assert a.match_keys == b.match_keys
    assert a.final_state == b.final_state
    assert a.used_genes == b.used_genes
    assert a.goal_reached == b.goal_reached
    assert a.cost == b.cost  # exact: same additions in the same order


def make_context(domain, truncate=True):
    return EvaluationContext(
        domain=domain,
        start_state=domain.initial_state,
        fitness=FitnessFunction(domain),
        truncate_at_goal=truncate,
    )


def evaluate(evaluator, genes, context):
    """Score one genome on *evaluator*, in a plan-less buffer as the service does.

    A memo hit writes no plan; the plan returned is then ``None``.
    """
    buffer = PopulationBuffer.from_genomes([genes], keep_plans=False)
    evaluator.evaluate_buffer(buffer, context)
    return buffer.plans[0], buffer.fitness_result(0)


def _random_buffer(rng, n, length):
    return PopulationBuffer.from_genomes([rng.random(length) for _ in range(n)])


def memo_evaluator(memo=None):
    """An engine evaluator with a fitness memo, as the service builds it."""
    return SerialEvaluator(engine=DecodeEngine(), memo=memo if memo is not None else FitnessMemo())


class TestTransitionCacheEquivalence:
    @pytest.mark.parametrize("truncate", [True, False])
    def test_matches_naive_decode_hanoi(self, hanoi3, rng, truncate):
        cache = TransitionCache(hanoi3)
        for _ in range(30):
            genes = rng.random(int(rng.integers(1, 25)))
            naive = decode(genes, hanoi3, hanoi3.initial_state, truncate_at_goal=truncate)
            plan, reused = cache.decode(genes, hanoi3.initial_state, truncate_at_goal=truncate)
            assert reused == 0
            assert_plans_identical(plan, naive)
        assert cache.trans_hits > 0  # the cache actually warmed up

    def test_matches_naive_decode_with_decode_key_domain(self, tile3, rng):
        # The sliding tile overrides decode_key, exercising the separate
        # match_keys table.
        cache = TransitionCache(tile3)
        for _ in range(30):
            genes = rng.random(int(rng.integers(1, 30)))
            naive = decode(genes, tile3, tile3.initial_state)
            plan, _ = cache.decode(genes, tile3.initial_state)
            assert_plans_identical(plan, naive)
        # match_keys must be real decode keys, not aliased state keys
        assert cache._has_dkey

    def test_repeat_decode_hits_transition_table(self, hanoi3, rng):
        cache = TransitionCache(hanoi3)
        genes = rng.random(15)
        cache.decode(genes, hanoi3.initial_state)
        misses_after_first = cache.trans_misses
        cache.decode(genes, hanoi3.initial_state)
        assert cache.trans_misses == misses_after_first  # all hits second time
        assert cache.trans_hits >= 15 - 1

    def test_transitions_off_still_correct(self, hanoi3, rng):
        # A fresh walk whose cached transitions land on an evicted state is
        # redone uncached; that walk fills no transition entries.
        cache = TransitionCache(hanoi3)
        genes = rng.random(12)
        cache.decode(genes, hanoi3.initial_state)
        cache._states.clear()  # every transition entry now lands on a lost state
        hits, misses = cache.trans_hits, cache.trans_misses
        plan, _ = cache.decode(genes, hanoi3.initial_state)
        assert_plans_identical(plan, decode(genes, hanoi3, hanoi3.initial_state))
        assert cache.fallbacks == 1
        assert cache.trans_misses == misses and cache.trans_hits > hits

    def test_one_valid_lookup_per_consumed_gene(self, hanoi3, rng):
        # The engine walk must generate the same valid-table traffic as the
        # naive decoder (serial-vs-process metric equality depends on it).
        cache = TransitionCache(hanoi3)
        genes = rng.random(10)
        plan, _ = cache.decode(genes, hanoi3.initial_state, truncate_at_goal=False)
        assert cache.valid_hits + cache.valid_misses == plan.used_genes


class TestPrefixResume:
    def _parent_plan(self, domain, genes, truncate=True):
        return decode(genes, domain, domain.initial_state, truncate_at_goal=truncate)

    @pytest.mark.parametrize("truncate", [True, False])
    def test_resumed_child_matches_full_decode(self, hanoi3, rng, truncate):
        cache = TransitionCache(hanoi3)
        for _ in range(25):
            parent_genes = rng.random(20)
            parent_plan, _ = cache.decode(
                parent_genes, hanoi3.initial_state, truncate_at_goal=truncate
            )
            cut = int(rng.integers(1, 20))
            child_genes = np.concatenate([parent_genes[:cut], rng.random(10)])
            naive = decode(
                child_genes, hanoi3, hanoi3.initial_state, truncate_at_goal=truncate
            )
            plan, reused = cache.decode(
                child_genes,
                hanoi3.initial_state,
                truncate_at_goal=truncate,
                prefix_plan=parent_plan,
                dirty_from=cut,
            )
            assert_plans_identical(plan, naive)
            assert reused == min(cut, parent_plan.used_genes)

    def test_resume_on_decode_key_domain(self, tile3, rng):
        cache = TransitionCache(tile3)
        for _ in range(25):
            parent_genes = rng.random(24)
            parent_plan, _ = cache.decode(parent_genes, tile3.initial_state)
            cut = int(rng.integers(1, 24))
            child_genes = parent_genes.copy()
            child_genes[cut:] = rng.random(24 - cut)
            naive = decode(child_genes, tile3, tile3.initial_state)
            plan, _ = cache.decode(
                child_genes, tile3.initial_state, prefix_plan=parent_plan, dirty_from=cut
            )
            assert_plans_identical(plan, naive)

    def test_identical_plan_shortcut_returns_prefix_object(self, hanoi3, rng):
        # When the parent's decode stopped strictly before the dirty point,
        # the child's plan IS the parent's plan (trailing genes are inert).
        from repro.domains import optimal_hanoi_moves
        from repro.core.encoding import encode_operations

        optimal = optimal_hanoi_moves(3)
        genes = np.concatenate(
            [encode_operations(hanoi3, hanoi3.initial_state, optimal), np.full(10, 0.5)]
        )
        cache = TransitionCache(hanoi3)
        parent_plan, _ = cache.decode(genes, hanoi3.initial_state)
        assert parent_plan.used_genes == 7
        child_genes = genes.copy()
        child_genes[10:] = 0.123  # mutate only inert genes
        plan, reused = cache.decode(
            child_genes, hanoi3.initial_state, prefix_plan=parent_plan, dirty_from=10
        )
        assert plan is parent_plan
        assert reused == 7

    def test_evicted_state_falls_back_to_full_walk(self, hanoi3, rng):
        cache = TransitionCache(hanoi3)
        parent_genes = rng.random(15)
        parent_plan, _ = cache.decode(parent_genes, hanoi3.initial_state)
        cache.clear()  # drop every representative state
        child_genes = np.concatenate([parent_genes[:8], rng.random(7)])
        naive = decode(child_genes, hanoi3, hanoi3.initial_state)
        plan, reused = cache.decode(
            child_genes, hanoi3.initial_state, prefix_plan=parent_plan, dirty_from=8
        )
        assert_plans_identical(plan, naive)
        assert reused == 0
        assert cache.fallbacks >= 1

    def test_mismatched_start_key_ignores_prefix(self, hanoi3, rng):
        cache = TransitionCache(hanoi3)
        parent_genes = rng.random(10)
        parent_plan, _ = cache.decode(parent_genes, hanoi3.initial_state)
        other_start = hanoi3.apply(
            hanoi3.initial_state, list(hanoi3.valid_operations(hanoi3.initial_state))[0]
        )
        naive = decode(parent_genes, hanoi3, other_start)
        plan, reused = cache.decode(
            parent_genes, other_start, prefix_plan=parent_plan, dirty_from=5
        )
        assert reused == 0
        assert_plans_identical(plan, naive)


class TestEvictionAndPinning:
    def test_tiny_cache_still_correct(self, tile3, rng):
        # max_entries=2 forces constant wholesale resets; correctness must
        # survive and evictions must be counted.
        cache = TransitionCache(tile3, max_entries=2)
        for _ in range(10):
            genes = rng.random(20)
            naive = decode(genes, tile3, tile3.initial_state)
            plan, _ = cache.decode(genes, tile3.initial_state)
            assert_plans_identical(plan, naive)
        assert cache.valid_evictions > 0 or cache.trans_evictions > 0

    def test_pinned_start_survives_reset(self, hanoi3, rng):
        cache = TransitionCache(hanoi3, max_entries=2)
        key = hanoi3.state_key(hanoi3.initial_state)
        cache.pin(key, hanoi3.initial_state)
        for _ in range(5):
            cache.decode(rng.random(15), hanoi3.initial_state)
        assert cache.state_for(key) is not None  # pinned state never evicted

    def test_max_entries_validated(self, hanoi3):
        with pytest.raises(ValueError):
            TransitionCache(hanoi3, max_entries=0)


class TestDecodeCachePinning:
    def test_pinned_key_survives_reset(self, hanoi3):
        cache = DecodeCache(hanoi3, max_entries=2)
        s = hanoi3.initial_state
        k = hanoi3.state_key(s)
        cache.pin(k)
        cache.valid_operations(s, k)
        cache.valid_operations(s, "filler-key")
        cache.valid_operations(s, "overflow-key")  # forces a reset
        cache.valid_operations(s, k)
        assert cache.hits == 1  # pinned entry survived the reset
        assert cache.evictions >= 1  # the filler entry was dropped and counted


class TestDedupAndMemo:
    def test_duplicate_genomes_evaluated_once(self, hanoi3, rng):
        # A hit returns the same fitness and no plan.
        ev = memo_evaluator()
        ctx = make_context(hanoi3)
        genes = rng.random(12)
        r1 = evaluate(ev, genes, ctx)
        r2 = evaluate(ev, genes.copy(), ctx)
        assert ev.memo.hits == 1
        assert r1[0] is not None and r2[0] is None
        assert r1[1] == r2[1]

    def test_engine_holds_no_memo_until_one_is_installed(self, hanoi3, rng):
        ev = SerialEvaluator(engine=DecodeEngine())
        ctx = make_context(hanoi3)
        genes = rng.random(12)
        first = evaluate(ev, genes, ctx)
        second = evaluate(ev, genes.copy(), ctx)
        assert ev.memo is None
        assert first[0] is not None and second[0] is not None  # both decoded

    def test_memo_invalidated_on_start_state_change(self, hanoi3, rng):
        ev = memo_evaluator()
        genes = rng.random(8)
        evaluate(ev, genes, make_context(hanoi3))
        mid = hanoi3.apply(
            hanoi3.initial_state, list(hanoi3.valid_operations(hanoi3.initial_state))[0]
        )
        ctx2 = EvaluationContext(
            domain=hanoi3, start_state=mid, fitness=FitnessFunction(hanoi3)
        )
        decoded, _ = evaluate(ev, genes, ctx2)
        naive = decode(genes, hanoi3, mid)
        assert_plans_identical(decoded, naive)  # memo did not serve stale fitness
        assert ev.memo.hits == 0

    def test_transition_tables_survive_rebind_same_domain(self, hanoi3, rng):
        engine = DecodeEngine()
        ctx = make_context(hanoi3)
        evaluate(SerialEvaluator(engine=engine), rng.random(15), ctx)
        warm = engine.counters()["transition_cache_misses"]
        engine.bind(ctx)  # per-batch rebind must not clear the tables
        assert engine.counters()["transition_cache_misses"] == warm
        assert engine._cache._tbl  # still warm

    def test_tables_rebuilt_on_domain_change(self, hanoi3, tile3, rng):
        ev = SerialEvaluator(engine=DecodeEngine())
        evaluate(ev, rng.random(10), make_context(hanoi3))
        decoded, _ = evaluate(ev, rng.random(10), make_context(tile3))
        naive = decode(rng.random(0), tile3, tile3.initial_state)  # smoke: domain works
        assert decoded.state_keys[0] == tile3.state_key(tile3.initial_state)
        assert naive is not None

    def test_memo_bounded(self, hanoi3, rng):
        memo = FitnessMemo()
        memo.max_entries = 4
        ev = memo_evaluator(memo)
        ctx = make_context(hanoi3)
        for _ in range(10):
            evaluate(ev, rng.random(6), ctx)
        assert len(memo) <= 4
        assert memo.evictions > 0


class TestSwapMemo:
    """A memo moved between evaluators keeps the signature check."""

    def scored_memo(self, domain, genes, start_state=None):
        ev = memo_evaluator()
        ctx = make_context(domain)
        if start_state is not None:
            ctx = EvaluationContext(
                domain=domain, start_state=start_state, fitness=FitnessFunction(domain)
            )
        evaluate(ev, genes, ctx)
        return ev.memo

    def test_memo_serves_a_fresh_engine_bound_to_an_equal_domain(self, rng):
        # The hit returns the fitness a decode would, and no plan.
        genes = rng.random(12)
        memo = self.scored_memo(HanoiDomain(3), genes)
        assert len(memo.entries) == 1
        domain = HanoiDomain(3)
        ev = memo_evaluator(memo)
        decoded, fitness = evaluate(ev, genes, make_context(domain))
        assert memo.hits == 1 and decoded is None
        naive = decode(genes, domain, domain.initial_state)
        assert fitness == FitnessFunction(domain)(naive)

    def test_memo_scored_under_another_signature_is_dropped_at_bind(self, hanoi3, rng):
        genes = rng.random(12)
        start = hanoi3.initial_state
        mid = hanoi3.apply(start, list(hanoi3.valid_operations(start))[0])
        ev = memo_evaluator(self.scored_memo(hanoi3, genes, start_state=mid))
        decoded, _ = evaluate(ev, genes, make_context(hanoi3))
        assert ev.memo.hits == 0
        assert_plans_identical(decoded, decode(genes, hanoi3, start))

    def test_memo_is_dropped_when_a_bound_engine_changes_domain(self, hanoi3, rng):
        genes = rng.random(12)
        ev = memo_evaluator()
        evaluate(ev, genes, make_context(hanoi3))
        evaluate(ev, genes, make_context(HanoiDomain(3)))
        assert ev.memo.hits == 0


class TestOperatorLineage:
    """Crossover/mutation must hand children a *conservative* dirty_from."""

    def _evaluated(self, domain, rng, n=18):
        ind = RefIndividual(genes=rng.random(n))
        ind.decoded = decode(ind.genes, domain, domain.initial_state)
        return ind

    def test_crossover_children_carry_prefix(self, hanoi3, rng):
        p1 = self._evaluated(hanoi3, rng)
        p2 = self._evaluated(hanoi3, rng)
        c1, c2 = random_crossover(p1, p2, rng, max_len=64)
        for child, parent in ((c1, p1), (c2, p2)):
            if child.dirty_from is None:
                continue  # empty-child fallback copies the parent
            assert child.prefix_plan is parent.decoded
            assert 0 < child.dirty_from <= child.genes.size
            # conservativeness: the prefix genes really are the parent's own
            np.testing.assert_array_equal(
                child.genes[: child.dirty_from], parent.genes[: child.dirty_from]
            )

    def test_unevaluated_parents_produce_plain_children(self, rng):
        p1, p2 = RefIndividual(genes=rng.random(10)), RefIndividual(genes=rng.random(10))
        c1, c2 = random_crossover(p1, p2, rng, max_len=64)
        assert c1.prefix_plan is None and c2.prefix_plan is None

    def test_uniform_mutation_tightens_dirty_from(self, hanoi3, rng):
        parent = self._evaluated(hanoi3, rng)
        for _ in range(20):
            child = uniform_reset_mutation(parent, 0.3, rng)
            if child is parent:
                continue  # nothing mutated
            assert child.prefix_plan is parent.decoded or child.prefix_plan is None
            if child.dirty_from is not None:
                np.testing.assert_array_equal(
                    child.genes[: child.dirty_from], parent.genes[: child.dirty_from]
                )

    def test_mutation_after_crossover_resumes_correctly(self, hanoi3, rng):
        # The end-to-end lineage check: crossover then mutation, and the
        # engine's prefix-resumed decode must still equal a naive decode.
        p1 = self._evaluated(hanoi3, rng)
        p2 = self._evaluated(hanoi3, rng)
        cache = TransitionCache(hanoi3)
        for _ in range(20):
            c1, _ = random_crossover(p1, p2, rng, max_len=64)
            m = uniform_reset_mutation(c1, 0.5, rng)
            naive = decode(m.genes, hanoi3, hanoi3.initial_state)
            plan, _ = cache.decode(
                m.genes,
                hanoi3.initial_state,
                prefix_plan=m.prefix_plan,
                dirty_from=m.dirty_from,
            )
            assert_plans_identical(plan, naive)


class TestEvaluatorIntegration:
    def test_serial_engine_matches_naive_evaluator(self, hanoi3, rng):
        genomes = [rng.random(16) for _ in range(20)]
        buf = PopulationBuffer.from_genomes(genomes)
        buf_naive = PopulationBuffer.from_genomes(genomes)
        engine = DecodeEngine()
        with SerialEvaluator(engine=engine) as ev:
            ev.evaluate_buffer(buf, make_context(hanoi3))
        assert engine.active
        ReferenceEvaluator().evaluate_buffer(buf_naive, make_context(hanoi3))
        for i in range(buf.n):
            assert_plans_identical(buf.plans[i], buf_naive.plans[i])
            assert buf.total[i] == buf_naive.total[i]
            assert buf.goal[i] == buf_naive.goal[i]

    def test_injected_engine_decodes_on_a_kernel_domain(self, hanoi3, rng):
        # Hanoi has a kernel, so only the injected engine keeps the
        # evaluator off the vector path.
        assert hanoi3.kernel() is not None
        engine = DecodeEngine()
        with SerialEvaluator(engine=engine) as ev:
            ev.evaluate_buffer(_random_buffer(rng, 6, 12), make_context(hanoi3))
            assert engine.active and ev.vector_counters() is None
            assert ev.engine_counters()["transition_cache_misses"] > 0
        with SerialEvaluator() as ev:
            ev.evaluate_buffer(_random_buffer(rng, 6, 12), make_context(hanoi3))
            assert ev.engine_counters() is None and ev.vector_counters() is not None

    def test_prefix_fields_cleared_after_evaluation(self, hanoi3, rng):
        genes = rng.random(16)
        child = PopulationBuffer.from_genomes([genes])
        child.prefix_plans[0] = decode(genes, hanoi3, hanoi3.initial_state)
        child.dirty_from[0] = 8
        with SerialEvaluator() as ev:
            ev.evaluate_buffer(child, make_context(hanoi3))
        assert child.prefix_hint(0) == (None, None)
        assert child.evaluated[0] and child.plans[0] is not None

    def test_ga_runs_with_engine_disabled(self, hanoi3):
        cfg = GAConfig(
            population_size=12,
            generations=5,
            max_len=32,
            init_length=8,
        )
        result = run_ga(hanoi3, cfg, make_rng(7), evaluator=ReferenceEvaluator())
        assert result.generations_run >= 1
        assert result.best.fitness is not None

    def test_shared_engine_across_evaluators(self, hanoi3, rng):
        engine = DecodeEngine()
        ctx = make_context(hanoi3)
        genomes = [rng.random(12) for _ in range(10)]
        with SerialEvaluator(engine=engine) as e1:
            e1.evaluate_buffer(PopulationBuffer.from_genomes(genomes), ctx)
        assert engine.active
        warm_misses = engine.counters()["transition_cache_misses"]
        assert warm_misses > 0
        with SerialEvaluator(engine=engine) as e2:
            e2.evaluate_buffer(PopulationBuffer.from_genomes(genomes), ctx)
        # Second evaluator reused the first one's tables: no new misses.
        assert engine.counters()["transition_cache_misses"] == warm_misses
