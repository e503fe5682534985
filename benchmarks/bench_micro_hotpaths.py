"""Microbenchmarks: the library's hot paths under pytest-benchmark's timer.

Unlike the table benches (one-shot regenerations), these use real repeated
timing: genome decoding (the GA's inner loop), the three crossovers, one
full GA generation, dispatch-payload packing (pickled list vs shared-memory
arena), batched-vs-loop selection and mutation, and a simulator execution.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    DecodeCache,
    EvaluationContext,
    FitnessFunction,
    FitnessResult,
    GAConfig,
    GARun,
    Individual,
    PopulationBuffer,
    SerialEvaluator,
    TransitionCache,
    decode,
    make_rng,
    mixed_crossover,
    random_crossover,
    state_aware_crossover,
)
from repro.core.mutation import sample_uniform_reset, uniform_reset_mutation
from repro.core.selection import tournament_selection, tournament_winner_indices
from repro.core.vector_decode import VectorDecoder
from repro.domains import HanoiDomain, SlidingTileDomain
from repro.grid import GridSimulator, imaging_pipeline, plan_to_activity_graph
from repro.planning.search import goal_gap, greedy_best_first


def test_decode_hanoi7(benchmark):
    domain = HanoiDomain(7)
    rng = make_rng(0)
    genes = rng.random(635)
    cache = DecodeCache(domain)
    decode(genes, domain, domain.initial_state, cache=cache)  # warm the cache
    result = benchmark(decode, genes, domain, domain.initial_state, True, cache)
    assert len(result.operations) > 0


def test_decode_tile4(benchmark):
    domain = SlidingTileDomain(4)
    rng = make_rng(1)
    genes = rng.random(512)
    cache = DecodeCache(domain)
    decode(genes, domain, domain.initial_state, cache=cache)
    result = benchmark(decode, genes, domain, domain.initial_state, True, cache)
    assert len(result.operations) == 512


def test_decode_hanoi7_warm_transitions(benchmark):
    """Same walk as test_decode_hanoi7, but through a warm TransitionCache —
    one int-keyed dict lookup per gene instead of the domain calls."""
    domain = HanoiDomain(7)
    rng = make_rng(0)
    genes = rng.random(635)
    cache = TransitionCache(domain)
    cache.decode(genes, domain.initial_state)  # warm valid + transition tables

    def warm_decode():
        plan, _ = cache.decode(genes, domain.initial_state)
        return plan

    result = benchmark(warm_decode)
    assert len(result.operations) > 0
    assert cache.trans_hits > 0


def test_decode_hanoi7_dirty_prefix(benchmark):
    """Prefix-resumed decode: a child differing from its parent only in the
    last ~5% of genes re-walks just that dirty tail."""
    domain = HanoiDomain(7)
    rng = make_rng(0)
    parent = rng.random(635)
    child = parent.copy()
    dirty_from = 600
    child[dirty_from:] = rng.random(635 - dirty_from)
    cache = TransitionCache(domain)
    parent_plan, _ = cache.decode(parent, domain.initial_state)
    cache.decode(child, domain.initial_state)  # warm the tail's tables too

    def resumed_decode():
        plan, reused = cache.decode(
            child, domain.initial_state,
            prefix_plan=parent_plan, dirty_from=dirty_from,
        )
        return plan, reused

    plan, reused = benchmark(resumed_decode)
    assert reused == dirty_from
    assert plan.state_keys[:dirty_from] == parent_plan.state_keys[:dirty_from]


def test_population_decode_vector_numpy(benchmark):
    """Whole-population decode (100×635 Hanoi-7) through the numpy
    lock-step walk, tables warmed outside the timer."""
    domain = HanoiDomain(7)
    rng = make_rng(4)
    population = [Individual(rng.random(635)) for _ in range(100)]
    buffer = PopulationBuffer.from_individuals(population, keep_plans=False)
    decoder = VectorDecoder(domain.kernel())
    decoder.bind(EvaluationContext(domain, domain.initial_state, FitnessFunction(domain)))
    decoder.decode_rows(buffer.genes, buffer.offsets, buffer.lengths, False)  # warm tables
    out = benchmark(
        decoder.decode_rows, buffer.genes, buffer.offsets, buffer.lengths, False
    )
    assert out[0].shape == (100,)


@pytest.mark.parametrize("operator", [random_crossover, state_aware_crossover, mixed_crossover])
def test_crossover_throughput(benchmark, operator):
    domain = HanoiDomain(5)
    rng = make_rng(2)
    ctx = EvaluationContext(domain, domain.initial_state, FitnessFunction(domain))
    p1, p2 = Individual.random(100, rng), Individual.random(100, rng)
    SerialEvaluator().evaluate([p1, p2], ctx)
    c1, c2 = benchmark(operator, p1, p2, rng, 155)
    assert len(c1) >= 1


def test_one_ga_generation(benchmark):
    domain = HanoiDomain(5)
    cfg = GAConfig(
        population_size=100, generations=10_000, max_len=155, init_length=31,
        stop_on_goal=False,
    )
    run = GARun(domain, cfg, make_rng(3))
    benchmark(run.step)


def _dispatch_population(n=100, length=635, seed=9):
    """A generation-sized population, as both Individuals and a buffer."""
    rng = make_rng(seed)
    population = [Individual.random(length, rng) for _ in range(n)]
    buffer = PopulationBuffer.from_individuals(population, keep_plans=False)
    return population, buffer


def test_dispatch_payload_pickled_list(benchmark):
    """The PR4 pool transport: pickle a list of Individuals for one batch."""
    population, _ = _dispatch_population()
    payload = benchmark(pickle.dumps, population, pickle.HIGHEST_PROTOCOL)
    benchmark.extra_info["payload_bytes"] = len(payload)


def test_dispatch_payload_shm_pack(benchmark):
    """The zero-copy transport's parent-side work: copy the gene arena plus
    index arrays into a (pre-mapped) shared buffer — what crosses the wire
    is just per-chunk ``(name, start, stop)`` triples."""
    _, buffer = _dispatch_population()
    n, genes_len = buffer.n, buffer.genes.shape[0]
    target = np.empty(2 * n + genes_len, dtype=np.float64)  # stand-in mapping

    def pack():
        target[:n] = buffer.offsets
        target[n : 2 * n] = buffer.lengths
        target[2 * n :] = buffer.genes
        return target

    benchmark(pack)
    benchmark.extra_info["payload_bytes"] = 8 * (2 * n + genes_len)


def test_selection_batched_draw(benchmark):
    """Tournament selection as one (n, k) draw + argmax gather."""
    rng = make_rng(11)
    fitness = rng.random(100)
    idx = benchmark(tournament_winner_indices, fitness, 100, rng, 2)
    assert idx.shape == (100,)


def test_selection_object_loop(benchmark):
    """Tournament selection over Individuals (the object path's shape)."""
    rng = make_rng(11)
    population, _ = _dispatch_population(n=100, length=8, seed=11)
    for ind, total in zip(population, rng.random(100)):
        ind.fitness = FitnessResult(goal=0.0, cost=0.0, total=float(total))
    winners = benchmark(tournament_selection, population, 100, rng, 2)
    assert len(winners) == 100


def test_mutation_batched_scatter(benchmark):
    """Arena-wide mutation: replayed per-row draws, one scatter write."""
    rng = make_rng(12)
    _, buffer = _dispatch_population(n=100, length=635, seed=12)
    arena = buffer.genes.copy()
    arena.setflags(write=True)
    offsets, lengths = buffer.offsets, buffer.lengths

    def scatter():
        idx_parts, val_parts = [], []
        for o, length in zip(offsets, lengths):
            drawn = sample_uniform_reset(int(length), 0.05, rng)
            if drawn is not None:
                idx_parts.append(drawn[0] + int(o))
                val_parts.append(drawn[1])
        if idx_parts:
            arena[np.concatenate(idx_parts)] = np.concatenate(val_parts)

    benchmark(scatter)


def test_mutation_object_loop(benchmark):
    """Per-Individual mutation: one copy + write-back per offspring."""
    rng = make_rng(12)
    population, _ = _dispatch_population(n=100, length=635, seed=12)

    def loop():
        return [uniform_reset_mutation(ind, 0.05, rng) for ind in population]

    children = benchmark(loop)
    assert len(children) == 100


def test_simulator_execution(benchmark):
    onto, domain = imaging_pipeline()
    r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
    graph = plan_to_activity_graph(domain, r.plan)

    def execute():
        return GridSimulator(onto).execute(graph, domain.initial_state)

    result = benchmark(execute)
    assert result.success
