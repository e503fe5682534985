"""GA task mapper for heterogeneous machines (Wang et al. 1997 style).

This is the *prior* use of GAs in heterogeneous computing the paper builds
on: the activity graph is given (here: independent tasks), and the GA
searches over assignments.  Contrast with :mod:`repro.core`, which evolves
the plan itself.

Encoding: a fixed-length integer chromosome ``assign[task] = machine``.
Fitness: negative makespan (optionally blended with flowtime).  Operators:
tournament selection, uniform assignment crossover, per-gene reassignment
mutation, Min-min seeding, and elitism — the standard recipe from the
eleven-heuristics study's GA entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.events import SchedulerGeneration
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.scheduling.heuristics import min_min
from repro.scheduling.metrics import flowtime, makespan

__all__ = ["GASchedulerConfig", "GASchedulerResult", "ga_schedule"]


@dataclass(frozen=True)
class GASchedulerConfig:
    population_size: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    tournament_size: int = 2
    elitism: int = 2
    seed_min_min: bool = True
    flowtime_weight: float = 0.0  # 0 = pure makespan objective

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValueError("elitism must be in [0, population_size)")
        if not 0.0 <= self.flowtime_weight <= 1.0:
            raise ValueError("flowtime_weight must be in [0, 1]")


@dataclass
class GASchedulerResult:
    assignment: np.ndarray
    makespan: float
    flowtime: float
    history: List[float]  # best makespan per generation

    @property
    def generations(self) -> int:
        return len(self.history)


def _objective(etc: np.ndarray, pop: np.ndarray, w_flow: float) -> np.ndarray:
    """Vectorised makespan (and optional flowtime) over a population."""
    n_pop, n_tasks = pop.shape
    n_machines = etc.shape[1]
    exec_times = etc[np.arange(n_tasks)[None, :], pop]  # (pop, tasks)
    loads = np.zeros((n_pop, n_machines))
    rows = np.repeat(np.arange(n_pop), n_tasks)
    np.add.at(loads, (rows, pop.ravel()), exec_times.ravel())
    spans = loads.max(axis=1)
    if w_flow == 0.0:
        return spans
    flows = loads.sum(axis=1)  # proxy: total busy time (lower bound of flowtime)
    return (1.0 - w_flow) * spans + w_flow * flows


def ga_schedule(
    etc: np.ndarray,
    config: GASchedulerConfig,
    rng: np.random.Generator,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> GASchedulerResult:
    """Evolve a task→machine mapping minimising makespan for *etc*.

    Emits one ``scheduler-generation`` event per generation (scope
    ``"scheduler"``) and records the ``sched_objective`` timer plus a
    ``sched_evals`` counter; defaults to the ambient observability pair.
    """
    tracer = tracer if tracer is not None else default_tracer()
    metrics = metrics if metrics is not None else default_metrics()
    n_tasks, n_machines = etc.shape
    pop = rng.integers(0, n_machines, size=(config.population_size, n_tasks))
    if config.seed_min_min:
        pop[0] = min_min(etc)

    history: List[float] = []
    best_assign: Optional[np.ndarray] = None
    best_obj = np.inf

    for _gen in range(config.generations):
        t0 = time.perf_counter()
        obj = _objective(etc, pop, config.flowtime_weight)
        if metrics is not None:
            metrics.timer("sched_objective").record(time.perf_counter() - t0)
            metrics.counter("sched_evals").add(config.population_size)
        gen_best = int(np.argmin(obj))
        if obj[gen_best] < best_obj:
            best_obj = float(obj[gen_best])
            best_assign = pop[gen_best].copy()
        history.append(float(makespan(etc, pop[gen_best])))
        if tracer.enabled:
            tracer.emit(
                SchedulerGeneration(
                    scope="scheduler",
                    generation=_gen,
                    best_makespan=history[-1],
                    mean_objective=float(obj.mean()),
                )
            )

        # Tournament selection (vectorised): k random contestants per slot.
        draws = rng.integers(0, config.population_size, size=(config.population_size, config.tournament_size))
        winners = draws[np.arange(config.population_size), np.argmin(obj[draws], axis=1)]
        parents = pop[winners]

        # Uniform crossover on consecutive pairs.
        children = parents.copy()
        for i in range(0, config.population_size - 1, 2):
            if rng.random() < config.crossover_rate:
                mask = rng.random(n_tasks) < 0.5
                a, b = children[i].copy(), children[i + 1].copy()
                children[i][mask], children[i + 1][mask] = b[mask], a[mask]

        # Per-gene reassignment mutation.
        mut = rng.random(children.shape) < config.mutation_rate
        children[mut] = rng.integers(0, n_machines, size=int(mut.sum()))

        # Elitism: keep the best of the evaluated generation.
        if config.elitism:
            elite_idx = np.argsort(obj)[: config.elitism]
            children[: config.elitism] = pop[elite_idx]
        pop = children

    assert best_assign is not None
    return GASchedulerResult(
        assignment=best_assign,
        makespan=makespan(etc, best_assign),
        flowtime=flowtime(etc, best_assign),
        history=history,
    )
