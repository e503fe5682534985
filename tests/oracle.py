"""Test-only reference implementations: the paper's rules, one object at a time.

Every production evaluator in :mod:`repro.core.parallel` promises results
bit-identical to decoding each genome with :func:`repro.core.encoding.decode`
and scoring the plan with the context's fitness function (DESIGN.md §1).
:class:`ReferenceEvaluator` does exactly that, one row at a time, so the
equivalence suites hold the decode engine, the vector walk and the pool
against it.

The GA's generation step runs on the :class:`~repro.core.popbuffer.
PopulationBuffer` arrays (:func:`repro.core.popbuffer.breed`).  The object
operators below — per-Individual crossover, uniform-reset mutation and
tournament selection — are the paper's Sections 3.4.1–3.4.3 written the
plain way, drawing through the same samplers; :func:`reference_ga` chains
them into the whole single-phase loop, so the replay suites hold
:class:`~repro.core.ga.GARun` bit-identical to it (DESIGN.md §11).

:func:`reference_islands` is the classic island model — a fixed ring
stepped in lockstep — which a ring portfolio
(:func:`repro.core.portfolio.ring_portfolio`) must replay.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GAConfig
from repro.core.crossover import sample_crossover_cuts
from repro.core.encoding import DecodeCache, decode
from repro.core.fitness import FitnessFunction
from repro.core.ga import GAResult, GARun, initial_population
from repro.core.individual import Individual
from repro.core.mutation import _mutated_child, sample_uniform_reset
from repro.core.parallel import EvaluationContext, Evaluator
from repro.core.rng import spawn_many
from repro.core.selection import tournament_winner_indices
from repro.core.stats import GenerationStats, RunHistory


class ReferenceEvaluator(Evaluator):
    """Decode every pending row from gene 0 and score it."""

    def __init__(self) -> None:
        self._cache = None

    def evaluate_buffer(self, buffer, context) -> None:
        if self._cache is None or self._cache.domain is not context.domain:
            self._cache = DecodeCache(context.domain)
        for i in np.flatnonzero(~buffer.evaluated).tolist():
            decoded = decode(
                buffer.view(i),
                context.domain,
                context.start_state,
                truncate_at_goal=context.truncate_at_goal,
                cache=self._cache,
            )
            buffer.set_result(i, decoded, context.fitness(decoded))


# -- crossover (Section 3.4.2) ------------------------------------------------


def _clip(genes: np.ndarray, max_len: Optional[int]) -> np.ndarray:
    if max_len is not None and genes.size > max_len:
        return genes[:max_len]
    return genes


def _one_point_children(
    p1: Individual, p2: Individual, cut1: int, cut2: int, max_len: Optional[int]
) -> Tuple[Individual, Individual]:
    g1 = np.concatenate([p1.genes[:cut1], p2.genes[cut2:]])
    g2 = np.concatenate([p2.genes[:cut2], p1.genes[cut1:]])
    children = []
    for g, fallback, cut in ((g1, p1, cut1), (g2, p2, cut2)):
        g = _clip(g, max_len)
        # A cut at an extreme end of both parents can yield an empty child;
        # genomes must be non-empty, so fall back to the parent copy.
        if g.size == 0:
            children.append(fallback.copy())
            continue
        # The child's first ``cut`` genes are the parent's own prefix, so
        # the decode engine can resume from the parent's retained walk.
        prefix = fallback.decoded
        if prefix is not None and cut > 0:
            children.append(
                Individual(genes=g, dirty_from=min(cut, int(g.size)), prefix_plan=prefix)
            )
        else:
            children.append(Individual(genes=g))
    return children[0], children[1]


def random_crossover(
    p1: Individual,
    p2: Individual,
    rng: np.random.Generator,
    max_len: Optional[int] = None,
) -> Tuple[Individual, Individual]:
    """One-point crossover with independent cut points on each parent."""
    cut1, cut2 = sample_crossover_cuts("random", len(p1), len(p2), None, None, rng)
    return _one_point_children(p1, p2, cut1, cut2, max_len)


def state_aware_crossover(
    p1: Individual,
    p2: Individual,
    rng: np.random.Generator,
    max_len: Optional[int] = None,
) -> Tuple[Individual, Individual]:
    """State-aware crossover; copies the parents when no matching cut exists."""
    cuts = sample_crossover_cuts(
        "state-aware", len(p1), len(p2), p1.decoded, p2.decoded, rng
    )
    if cuts is None:
        return p1.copy(), p2.copy()
    return _one_point_children(p1, p2, cuts[0], cuts[1], max_len)


def mixed_crossover(
    p1: Individual,
    p2: Individual,
    rng: np.random.Generator,
    max_len: Optional[int] = None,
) -> Tuple[Individual, Individual]:
    """State-aware when a matching cut exists, otherwise random.

    Implemented exactly as the paper describes: pick the first cut, look for
    a state match; if found do state-aware splicing, else pick the second
    cut at random.
    """
    cuts = sample_crossover_cuts("mixed", len(p1), len(p2), p1.decoded, p2.decoded, rng)
    assert cuts is not None  # mixed always falls back to a random second cut
    return _one_point_children(p1, p2, cuts[0], cuts[1], max_len)


CROSSOVER_OPERATORS: dict = {
    "random": random_crossover,
    "state-aware": state_aware_crossover,
    "mixed": mixed_crossover,
}


# -- mutation (Section 3.4.3) -------------------------------------------------


def uniform_reset_mutation(
    ind: Individual, rate: float, rng: np.random.Generator
) -> Individual:
    """Replace each gene with a new uniform float with probability *rate*.

    Returns the same object when nothing mutates (genomes are immutable, so
    sharing is safe), avoiding a copy for the common case at rate 0.01.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
    if rate == 0.0:
        return ind
    drawn = sample_uniform_reset(len(ind), rate, rng)
    if drawn is None:
        return ind
    idx, values = drawn
    genes = ind.genes.copy()
    genes[idx] = values
    return _mutated_child(ind, genes, int(idx[0]))


# -- selection (Section 3.4.1) ------------------------------------------------


def _require_evaluated(population: Sequence[Individual]) -> None:
    if not population:
        raise ValueError("population is empty")
    for ind in population:
        # Selection ranks on fitness only; the decoded phenotype is not needed.
        if ind.fitness is None:
            raise ValueError("selection requires an evaluated population")


def tournament_selection(
    population: Sequence[Individual],
    n: int,
    rng: np.random.Generator,
    tournament_size: int = 2,
) -> list:
    """Pick *n* parents by size-``k`` tournaments on total fitness.

    Each tournament draws ``k`` individuals uniformly with replacement and
    keeps the fittest (paper: k=2, "the individual with the higher fitness
    value wins and remains in the population").
    """
    _require_evaluated(population)
    fits = np.array([ind.total_fitness for ind in population], dtype=np.float64)
    picks = tournament_winner_indices(fits, n, rng, tournament_size)
    return [population[i].copy() for i in picks]


# -- the generation loop ------------------------------------------------------


def stats_from_population(generation: int, population: Sequence[Individual]) -> GenerationStats:
    """:class:`GenerationStats` collected from Individuals."""
    totals = np.array([ind.total_fitness for ind in population])
    goals = np.array([ind.goal_fitness for ind in population])
    lengths = np.array([len(ind) for ind in population])
    solved = sum(
        1 for ind in population if ind.fitness is not None and ind.fitness.goal_reached
    )
    return GenerationStats(
        generation=generation,
        best_total=float(totals.max()),
        mean_total=float(totals.mean()),
        best_goal=float(goals.max()),
        mean_goal=float(goals.mean()),
        mean_length=float(lengths.mean()),
        max_length=int(lengths.max()),
        min_length=int(lengths.min()),
        solved_count=solved,
    )


def reference_generation(
    population: Sequence[Individual], cfg: GAConfig, rng: np.random.Generator
) -> List[Individual]:
    """Breed the next generation from an evaluated *population*.

    Elites first; parents paired ``(i, i+1)`` with wraparound; the second
    child of the final pair dropped after its sibling's mutation when the
    population fills on an odd count.
    """
    crossover = CROSSOVER_OPERATORS[cfg.crossover]
    parents = tournament_selection(population, cfg.population_size, rng, cfg.tournament_size)
    offspring: List[Individual] = []
    if cfg.elitism:
        elite = sorted(population, key=lambda ind: ind.total_fitness, reverse=True)
        offspring.extend(e.copy() for e in elite[: cfg.elitism])
    i = 0
    while len(offspring) < cfg.population_size:
        p1 = parents[i % len(parents)]
        p2 = parents[(i + 1) % len(parents)]
        i += 2
        if rng.random() < cfg.crossover_rate:
            c1, c2 = crossover(p1, p2, rng, max_len=cfg.max_len)
        else:
            c1, c2 = p1.copy(), p2.copy()
        for child in (c1, c2):
            child = uniform_reset_mutation(child, cfg.mutation_rate, rng)
            offspring.append(child)
            if len(offspring) >= cfg.population_size:
                break
    return offspring


def reference_ga(
    domain,
    config: GAConfig,
    rng: np.random.Generator,
    evaluator: Optional[Evaluator] = None,
) -> GAResult:
    """Run the single-phase GA on Individuals: what ``run_ga`` must equal.

    *evaluator* (default :class:`ReferenceEvaluator`) is driven through the
    list API, :meth:`~repro.core.parallel.Evaluator.evaluate`.
    """
    context = EvaluationContext(
        domain,
        domain.initial_state,
        FitnessFunction(domain, config.goal_weight, config.cost_weight),
        truncate_at_goal=config.truncate_at_goal,
        vector=config.vector_decode,
    )
    evaluator = evaluator if evaluator is not None else ReferenceEvaluator()
    population = initial_population(config, rng)
    history = RunHistory()
    best: Optional[Individual] = None
    solved_at: Optional[int] = None
    generation = 0
    for _ in range(config.generations):
        evaluator.evaluate(population, context)
        stats = stats_from_population(generation, population)
        history.record(stats)
        gen_best = max(population, key=lambda ind: ind.sort_key())
        if best is None or gen_best.sort_key() > best.sort_key():
            best = gen_best.copy()
        if solved_at is None and stats.solved_count > 0:
            solved_at = generation
        population = reference_generation(population, config, rng)
        generation += 1
        if config.stop_on_goal and solved_at is not None:
            break
    return GAResult(
        best=best,
        history=history,
        generations_run=generation,
        solved_at_generation=solved_at,
        start_state=domain.initial_state,
        elapsed_seconds=0.0,
    )


# -- the island model ---------------------------------------------------------


@dataclass
class IslandsResult:
    """What :func:`reference_islands` ran: one history per island, the
    best Individual, and every migration edge as ``(generation, src, dst,
    k)``."""

    best: Individual
    histories: List[RunHistory]
    generations_run: int
    solved_at_generation: Optional[int]
    edges: List[Tuple[int, int, int, int]]


def reference_islands(
    domain,
    configs: Sequence[GAConfig],
    rng: np.random.Generator,
    interval: int,
    migration_size: int,
) -> IslandsResult:
    """The ring island model in lockstep, one :class:`GARun` per config.

    Each generation every island is evaluated; the run stops there once
    any island has solved, if the islands stop on goal.  Every *interval*
    generations island i's *migration_size* best (a stable argsort, all
    taken before any import) replace island i+1's worst.  Then every
    island breeds.  Islands march to the tightest generation budget.
    """
    n = len(configs)
    islands = [
        GARun(domain, cfg, stream, evaluator=ReferenceEvaluator())
        for cfg, stream in zip(configs, spawn_many(rng, n))
    ]
    edges: List[Tuple[int, int, int, int]] = []
    solved_at: Optional[int] = None
    generations = 0
    for gen in range(min(cfg.generations for cfg in configs)):
        for run in islands:
            run._evaluate_and_record()
        generations = gen + 1
        if solved_at is None and any(run.solved_at is not None for run in islands):
            solved_at = gen
            if configs[0].stop_on_goal:
                break
        if generations % interval == 0:
            emigrants = [
                run.buffer.take(np.argsort(-run.buffer.total, kind="stable")[:migration_size])
                for run in islands
            ]
            for i, run in enumerate(islands):
                run.replace_worst(emigrants[i - 1])
                edges.append((gen, (i - 1) % n, i, migration_size))
        for run in islands:
            run._next_generation()
    return IslandsResult(
        best=max((run.best for run in islands), key=Individual.sort_key),
        histories=[run.history for run in islands],
        generations_run=generations,
        solved_at_generation=solved_at,
        edges=edges,
    )
