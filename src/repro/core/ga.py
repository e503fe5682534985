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
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.config import GAConfig
from repro.core.fitness import FitnessFunction
from repro.core.individual import Individual
from repro.core.parallel import EvaluationContext, Evaluator, SerialEvaluator
from repro.core.popbuffer import PopulationBuffer, breed, select_parent_indices
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
        # The state-matching crossovers read parents' match_keys, so the
        # buffer must keep decoded plans; random crossover does not, which
        # lets shared-memory dispatch skip shipping plans back.
        self._keep_plans = config.crossover != "random"
        self.population = initial_population(config, rng, seeds=seeds)
        self.history = RunHistory()
        self.generation = 0
        self.best: Optional[Individual] = None
        self.solved_at: Optional[int] = None

    # -- population storage --------------------------------------------------
    #
    # The population lives in ``buffer``; Individuals appear only at the API
    # edge below (checkpoints, tests), materialised on read and packed on
    # write.

    @property
    def population(self) -> List[Individual]:
        return self.buffer.to_individuals()

    @population.setter
    def population(self, value: Sequence[Individual]) -> None:
        self.buffer = PopulationBuffer.from_individuals(value, keep_plans=self._keep_plans)

    def replace_worst(self, migrants: PopulationBuffer) -> None:
        """Swap this run's ``migrants.n`` worst rows for *migrants* (migration).

        The population must be evaluated.  Survivors keep their order and
        the migrants follow; a stable argsort picks the same victims as a
        stable sort by total fitness.  A migrant that arrives evaluated but
        without its plan (shared-memory dispatch under random crossover
        ships fitness only) is decoded here when this run keeps plans,
        because the state-matching crossovers read parents' plans.
        """
        buf = self.buffer
        worst = np.argsort(buf.total, kind="stable")[: migrants.n]
        keep = np.setdiff1d(np.arange(buf.n, dtype=np.int64), worst)
        merged = PopulationBuffer.concatenate([buf.take(keep), migrants])
        if self._keep_plans:
            for i in range(keep.size, merged.n):
                if merged.evaluated[i] and merged.plans[i] is None:
                    merged.plans[i] = self.context.decode_genes(merged.view(i))
        self.buffer = merged

    # -- internals -----------------------------------------------------------

    def _evaluate_and_record(self) -> None:
        buf = self.buffer
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
        t0 = time.perf_counter()
        parent_idx = select_parent_indices(self.buffer, self.config, self.rng)
        t1 = time.perf_counter()
        self.buffer = breed(self.buffer, parent_idx, self.config, self.rng)
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
