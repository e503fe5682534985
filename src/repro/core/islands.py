"""Island-model GA: multiple populations with periodic migration.

A coarse-grained parallel GA in the classic SPMD shape: ``n_islands``
independent populations evolve the same planning problem; every
``migration_interval`` generations each island sends copies of its
``migration_size`` best individuals to the next island on a ring, replacing
that island's worst.  Islands preserve diversity that a single panmictic
population loses — a useful lever on deceptive landscapes like the
weighted-disk Hanoi fitness — and each island's generation step is an
independent work unit, so the model decomposes naturally across processes
(one evaluator per island) on a real parallel machine.

This is an extension beyond the paper (its future-work list includes richer
search structures); the ablation bench compares it against the single
population and the multi-phase GA at equal total evaluation budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import rng as rng_mod
from repro.core.config import GAConfig
from repro.core.ga import GAResult, GARun
from repro.core.individual import Individual
from repro.core.decode_engine import DecodeEngine
from repro.core.parallel import Evaluator, SerialEvaluator, build_evaluators
from repro.core.stats import RunHistory
from repro.obs.events import IslandMigration
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.protocol import PlanningDomain

__all__ = ["IslandConfig", "IslandResult", "run_islands"]


@dataclass(frozen=True)
class IslandConfig:
    """Parameters of an island-model run.

    ``island`` is the per-island GA config; its ``population_size`` is the
    per-island size (total budget = n_islands × population_size ×
    generations).  ``per_island`` optionally overrides the config island by
    island (length must equal ``n_islands``); heterogeneous population
    sizes are allowed, and ``migration_size`` is then validated against the
    *smallest* island — migration replaces a destination's worst k, so k
    must leave every island at least one survivor.
    """

    n_islands: int = 4
    migration_interval: int = 10
    migration_size: int = 2
    island: GAConfig = None  # type: ignore[assignment]
    per_island: Optional[Tuple[GAConfig, ...]] = None

    def __post_init__(self) -> None:
        if self.n_islands < 2:
            raise ValueError(f"need at least 2 islands, got {self.n_islands}")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if self.migration_size < 1:
            raise ValueError("migration_size must be >= 1")
        if self.island is None:
            raise ValueError("island config is required")
        if self.per_island is not None:
            if not isinstance(self.per_island, tuple):
                object.__setattr__(self, "per_island", tuple(self.per_island))
            if len(self.per_island) != self.n_islands:
                raise ValueError(
                    f"per_island must list {self.n_islands} configs, "
                    f"got {len(self.per_island)}"
                )
        smallest = min(cfg.population_size for cfg in self.island_configs)
        if self.migration_size >= smallest:
            raise ValueError(
                "migration_size must be smaller than the smallest island "
                f"population ({smallest}), got {self.migration_size}"
            )

    @property
    def island_configs(self) -> Tuple[GAConfig, ...]:
        """The effective per-island configs (``per_island`` or the shared one)."""
        if self.per_island is not None:
            return self.per_island
        return (self.island,) * self.n_islands


@dataclass
class IslandResult:
    """Outcome of an island-model run."""

    best: Individual
    best_island: int
    histories: List[RunHistory]
    generations_run: int
    solved_at_generation: Optional[int]
    migrations: int
    elapsed_seconds: float

    @property
    def solved(self) -> bool:
        return self.best.fitness is not None and self.best.fitness.goal_reached


def _migrate(islands: List[GARun], k: int) -> None:
    """Ring migration: island i's k best replace island i+1's k worst.

    Populations are already evaluated when this is called (migration runs
    right after a step's evaluation), so fitness-based ranking is safe.
    Emigrants are buffer rows picked by a stable argsort (ties keep their
    population order); :meth:`GARun.replace_worst` appends them after the
    destination's survivors.
    """
    emigrants = []
    for run in islands:
        order = np.argsort(-run.buffer.total, kind="stable")
        emigrants.append(run.buffer.take(order[:k]))
    for i, run in enumerate(islands):
        run.replace_worst(emigrants[(i - 1) % len(islands)])


def run_islands(
    domain: PlanningDomain,
    config: IslandConfig,
    rng: np.random.Generator,
    start_state: Optional[object] = None,
    evaluator_factory: Optional[Callable[[], Evaluator]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> IslandResult:
    """Run the island-model GA to the per-island generation budget.

    Stops early when ``config.island.stop_on_goal`` is set and any island
    produces a solving individual.  Per-island evaluators built by
    *evaluator_factory* are closed before returning (also on early stop or
    error).  Island *i*'s events carry the ``island-i`` scope; migrations
    emit ``island-migration`` events on the shared tracer.
    """
    t0 = time.perf_counter()
    tracer = tracer if tracer is not None else default_tracer()
    metrics = metrics if metrics is not None else default_metrics()
    configs = config.island_configs
    rngs = rng_mod.spawn_many(rng, config.n_islands)
    if evaluator_factory is not None:
        evaluators: List[Evaluator] = build_evaluators(
            evaluator_factory, config.n_islands
        )
    else:
        # Serial islands keep per-island evaluators (events stay scoped per
        # island) but share one decode engine: all islands search the same
        # domain from the same start state, so transition tables and the
        # fitness memo are valid — and much hotter — when shared.
        engine = DecodeEngine()
        evaluators = [SerialEvaluator(engine=engine) for _ in range(config.n_islands)]
    try:
        islands = [
            GARun(
                domain,
                configs[i],
                rngs[i],
                start_state=start_state,
                evaluator=evaluators[i],
                tracer=tracer,
                metrics=metrics,
                scope=f"island-{i}",
            )
            for i in range(config.n_islands)
        ]
        solved_at: Optional[int] = None
        migrations = 0
        generations = 0
        # Heterogeneous islands march in lockstep, so the run length is the
        # tightest per-island budget.
        budget = min(cfg.generations for cfg in configs)
        for gen in range(budget):
            for run in islands:
                # Evaluate and record, but breed only after possible migration.
                run._evaluate_and_record()
            generations = gen + 1
            if solved_at is None and any(r.solved_at is not None for r in islands):
                solved_at = gen
                if config.island.stop_on_goal:
                    break
            if (gen + 1) % config.migration_interval == 0:
                _migrate(islands, config.migration_size)
                migrations += 1
                if tracer.enabled:
                    tracer.emit(
                        IslandMigration(
                            generation=gen,
                            migration=migrations,
                            n_islands=config.n_islands,
                            migrants_per_island=config.migration_size,
                        )
                    )
            for run in islands:
                run._next_generation()
    finally:
        for evaluator in evaluators:
            evaluator.close()

    best_island = 0
    best: Optional[Individual] = None
    for i, run in enumerate(islands):
        if run.best is not None and (best is None or run.best.sort_key() > best.sort_key()):
            best = run.best
            best_island = i
    assert best is not None
    return IslandResult(
        best=best,
        best_island=best_island,
        histories=[run.history for run in islands],
        generations_run=generations,
        solved_at_generation=solved_at,
        migrations=migrations,
        elapsed_seconds=time.perf_counter() - t0,
    )
