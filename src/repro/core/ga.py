"""The single-phase GA planner (paper, Sections 3.1–3.4).

One run evolves a fixed-size population of variable-length float genomes:

1. evaluate every individual (decode against the start state, score with
   the weighted goal + cost fitness),
2. select parents by tournament,
3. pair parents and apply one of the three crossovers with probability
   ``crossover_rate`` (children replace their parents),
4. apply per-gene uniform-reset mutation,
5. replace the population and repeat.

The best individual *by goal fitness* seen in any generation is tracked
across the whole run (the paper reports "the individual with the highest
goal fitness in each run").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import GAConfig
from repro.core.crossover import CROSSOVER_OPERATORS
from repro.core.fitness import FitnessFunction
from repro.core.individual import Individual
from repro.core.mutation import uniform_reset_mutation
from repro.core.parallel import EvaluationContext, Evaluator, SerialEvaluator
from repro.core.popbuffer import PopulationBuffer, breed, select_parent_indices
from repro.core.selection import tournament_selection
from repro.core.stats import GenerationStats, RunHistory
from repro.obs.events import DecodeCacheSnapshot, GenerationComplete
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.protocol import PlanningDomain

__all__ = ["GARun", "GAResult", "initial_population", "run_ga"]


@dataclass
class GAResult:
    """Outcome of one single-phase run.

    Attributes
    ----------
    best:
        The individual with the highest goal fitness seen during the run
        (ties broken by total fitness).
    history:
        Per-generation statistics.
    generations_run:
        Number of generations actually evolved (< budget when
        ``stop_on_goal`` triggered).
    solved_at_generation:
        First generation (0-based) whose population contained a solving
        individual, or ``None``.
    start_state:
        The state this run searched from.
    elapsed_seconds:
        Wall-clock time of the run.
    """

    best: Individual
    history: RunHistory
    generations_run: int
    solved_at_generation: Optional[int]
    start_state: object
    elapsed_seconds: float

    @property
    def solved(self) -> bool:
        return self.best.fitness is not None and self.best.fitness.goal_reached

    @property
    def best_plan(self) -> tuple:
        if self.best.decoded is None:
            raise ValueError("best individual was never decoded")
        return self.best.decoded.operations


def initial_population(
    config: GAConfig, rng: np.random.Generator, seeds: Optional[Sequence[Individual]] = None
) -> List[Individual]:
    """Random initial population (Section 3.2), optionally partially seeded.

    *seeds* (at most the population size) are copied in first; the remainder
    is random.  Seeding is the GenPlan-style strategy studied in the seeding
    ablation — the paper's own experiments use a fully random population.
    """
    population: List[Individual] = []
    if seeds:
        if len(seeds) > config.population_size:
            raise ValueError(
                f"{len(seeds)} seeds exceed population size {config.population_size}"
            )
        population.extend(s.copy() for s in seeds)
    while len(population) < config.population_size:
        if isinstance(config.init_length, tuple):
            lo, hi = config.init_length
            length = int(rng.integers(lo, hi + 1))
        else:
            length = config.init_length
        if config.max_len is not None:
            length = min(length, config.max_len)
        population.append(Individual.random(length, rng))
    return population


class GARun:
    """A stepwise-drivable single-phase GA.

    Exposes :meth:`step` for callers that need per-generation control (the
    multi-phase driver, tests, live dashboards) and :meth:`run` for the
    plain loop.

    Observability: *tracer* receives ``generation`` events (one per
    evaluated generation) and a final ``decode-cache`` snapshot; *metrics*
    gets the ``selection`` / ``variation`` timers plus whatever the
    evaluator records.  Both default to the ambient pair installed by
    :func:`repro.obs.observe` (the null tracer / no registry otherwise), and
    *scope* tags this run's events when several runs share one tracer
    (phases, islands).
    """

    def __init__(
        self,
        domain: PlanningDomain,
        config: GAConfig,
        rng: np.random.Generator,
        start_state: Optional[object] = None,
        evaluator: Optional[Evaluator] = None,
        seeds: Optional[Sequence[Individual]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        scope: str = "",
    ) -> None:
        if config.max_len is None:
            raise ValueError("GAConfig.max_len must be set (the paper's MaxLen)")
        self.domain = domain
        self.config = config
        self.rng = rng
        self.start_state = start_state if start_state is not None else domain.initial_state
        self.context = EvaluationContext(
            domain=domain,
            start_state=self.start_state,
            fitness=FitnessFunction(domain, config.goal_weight, config.cost_weight),
            truncate_at_goal=config.truncate_at_goal,
            vector=getattr(config, "vector_decode", None),
        )
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
        self.tracer = tracer if tracer is not None else default_tracer()
        self.metrics = metrics if metrics is not None else default_metrics()
        self.scope = scope
        self.evaluator.bind_observability(self.tracer, self.metrics, scope=scope)
        self._crossover = CROSSOVER_OPERATORS[config.crossover]
        self._batched = bool(getattr(config, "batched", True))
        # The state-matching crossovers read parents' match_keys, so the
        # batched path must keep decoded plans; random crossover does not,
        # which lets shared-memory dispatch skip shipping plans back.
        self._keep_plans = config.crossover != "random"
        self._buffer: Optional[PopulationBuffer] = None
        self._individuals: Optional[List[Individual]] = None
        self.population = initial_population(config, rng, seeds=seeds)
        self.history = RunHistory()
        self.generation = 0
        self.best: Optional[Individual] = None
        self.solved_at: Optional[int] = None

    # -- population storage --------------------------------------------------
    #
    # With ``config.batched`` the population lives in a PopulationBuffer;
    # the ``population`` property keeps the historical list-of-Individual
    # surface working (checkpoints, islands, tests) by materialising on
    # read and re-packing on write.

    @property
    def population(self) -> List[Individual]:
        if self._buffer is not None:
            return self._buffer.to_individuals()
        assert self._individuals is not None
        return self._individuals

    @population.setter
    def population(self, value) -> None:
        if isinstance(value, PopulationBuffer):
            self._buffer, self._individuals = value, None
        elif self._batched:
            self._buffer = PopulationBuffer.from_individuals(
                value, keep_plans=self._keep_plans
            )
            self._individuals = None
        else:
            self._individuals, self._buffer = list(value), None

    @property
    def buffer(self) -> Optional[PopulationBuffer]:
        """The structure-of-arrays population, or ``None`` when not batched."""
        return self._buffer

    # -- internals -----------------------------------------------------------

    def _evaluate_and_record(self) -> None:
        if self._buffer is not None:
            self._evaluate_and_record_batched()
            return
        self.evaluator.evaluate(self.population, self.context)
        stats = GenerationStats.from_population(self.generation, self.population)
        self.history.record(stats)
        gen_best = max(self.population, key=lambda ind: ind.sort_key())
        if self.best is None or gen_best.sort_key() > self.best.sort_key():
            self.best = gen_best.copy()
        if self.solved_at is None and stats.solved_count > 0:
            self.solved_at = self.generation
        if self.tracer.enabled:
            self.tracer.emit(GenerationComplete.from_stats(stats, scope=self.scope))

    def _evaluate_and_record_batched(self) -> None:
        buf = self._buffer
        assert buf is not None
        self.evaluator.evaluate_buffer(buf, self.context)
        stats = GenerationStats.from_buffer(self.generation, buf)
        self.history.record(stats)
        bi = buf.best_index()
        key = (float(buf.goal[bi]), float(buf.total[bi]))
        if self.best is None or key > self.best.sort_key():
            best = buf.materialize(bi)
            if best.decoded is None:
                # Shared-memory dispatch returns packed fitness only; the
                # single generation winner is decoded lazily parent-side.
                best.decoded = self.context.decode_genes(best.genes)
            self.best = best
        if self.solved_at is None and stats.solved_count > 0:
            self.solved_at = self.generation
        if self.tracer.enabled:
            self.tracer.emit(GenerationComplete.from_stats(stats, scope=self.scope))

    def _next_generation(self) -> None:
        cfg = self.config
        if self._buffer is not None:
            t0 = time.perf_counter()
            parent_idx = select_parent_indices(self._buffer, cfg, self.rng)
            t1 = time.perf_counter()
            self._buffer = breed(self._buffer, parent_idx, cfg, self.rng)
            self.generation += 1
            if self.metrics is not None:
                self.metrics.timer("selection").record(t1 - t0)
                self.metrics.timer("variation").record(time.perf_counter() - t1)
                self.metrics.counter("batched_generations").add(1)
            return
        t0 = time.perf_counter()
        parents = tournament_selection(
            self.population, cfg.population_size, self.rng, cfg.tournament_size
        )
        t1 = time.perf_counter()
        offspring: List[Individual] = []
        if cfg.elitism:
            elite = sorted(self.population, key=lambda ind: ind.total_fitness, reverse=True)
            offspring.extend(e.copy() for e in elite[: cfg.elitism])
        i = 0
        while len(offspring) < cfg.population_size:
            p1 = parents[i % len(parents)]
            p2 = parents[(i + 1) % len(parents)]
            i += 2
            if self.rng.random() < cfg.crossover_rate:
                c1, c2 = self._crossover(p1, p2, self.rng, max_len=cfg.max_len)
            else:
                c1, c2 = p1.copy(), p2.copy()
            for child in (c1, c2):
                child = uniform_reset_mutation(child, cfg.mutation_rate, self.rng)
                offspring.append(child)
                if len(offspring) >= cfg.population_size:
                    break
        self.population = offspring
        self.generation += 1
        if self.metrics is not None:
            self.metrics.timer("selection").record(t1 - t0)
            self.metrics.timer("variation").record(time.perf_counter() - t1)

    # -- public API ----------------------------------------------------------

    def step(self) -> GenerationStats:
        """Evaluate the current generation, then breed the next one."""
        self._evaluate_and_record()
        self._next_generation()
        return self.history.generations[-1]

    def run(
        self, on_generation: Optional[Callable[[GenerationStats], Optional[bool]]] = None
    ) -> GAResult:
        """Run to the generation budget (or to the first solution).

        *on_generation* receives each generation's stats; returning a truthy
        value stops the run early — termination criteria from
        :mod:`repro.core.termination` plug in here.
        """
        t0 = time.perf_counter()
        for _ in range(self.config.generations):
            stats = self.step()
            if on_generation is not None and on_generation(stats):
                break
            if self.config.stop_on_goal and self.solved_at is not None:
                break
        assert self.best is not None
        if self.tracer.enabled:
            info = self.evaluator.cache_info()
            if info is not None:
                self.tracer.emit(
                    DecodeCacheSnapshot(scope=self.scope, hits=info[0], misses=info[1])
                )
        return GAResult(
            best=self.best,
            history=self.history,
            generations_run=self.generation,
            solved_at_generation=self.solved_at,
            start_state=self.start_state,
            elapsed_seconds=time.perf_counter() - t0,
        )


def run_ga(
    domain: PlanningDomain,
    config: GAConfig,
    rng: np.random.Generator,
    start_state: Optional[object] = None,
    evaluator: Optional[Evaluator] = None,
    seeds: Optional[Sequence[Individual]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    scope: str = "",
) -> GAResult:
    """Convenience wrapper: construct a :class:`GARun` and run it."""
    return GARun(
        domain,
        config,
        rng,
        start_state=start_state,
        evaluator=evaluator,
        seeds=seeds,
        tracer=tracer,
        metrics=metrics,
        scope=scope,
    ).run()
