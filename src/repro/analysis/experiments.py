"""Experiment scale, parameter tables and the shared single-run records.

Every table, config and experiment spec takes an :class:`ExperimentScale`
so the same code serves two regimes:

- ``ExperimentScale.paper()`` — the paper's parameters (pop 200, 500
  generations, 10 runs for Hanoi / 50 for tiles); minutes-to-hours of CPU.
- ``ExperimentScale.scaled(...)`` — small populations/budgets so the bench
  suite completes quickly while preserving every qualitative shape.

``scale_from_env()`` picks the paper regime when ``REPRO_FULL=1``.

MaxLen assumptions (the paper's MaxLen values are illegible in the source
scan; recorded in EXPERIMENTS.md).  The rules live beside their domains,
:func:`repro.domains.hanoi.hanoi_max_len` and
:func:`repro.domains.sliding_tile.tile_max_len`, and are re-exported here:

- Hanoi: ``MaxLen = 5 * (2**n - 1)`` — five times the optimal length.  The
  paper's reported solution sizes (72.3–628.0 single-phase) exceed small
  powers of two and fit comfortably under this cap, and it reproduces the
  reported generation counts.
- Sliding tile: ``MaxLen = 2 * n**4`` (162 for 3×3, 512 for 4×4), against
  reported sizes 107–182 (3×3, ≤2 phases) and 832–922 (4×4, ≤5 phases).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.analysis.tables import Table
from repro.core import (
    GAConfig,
    MultiPhaseConfig,
    run_ga,
    run_multiphase,
)
from repro.domains.hanoi import hanoi_max_len
from repro.domains.sliding_tile import tile_init_length, tile_max_len

__all__ = [
    "ExperimentScale",
    "scale_from_env",
    "hanoi_max_len",
    "tile_max_len",
    "tile_init_length",
    "hanoi_parameter_table",
    "tile_parameter_table",
    "RunRecord",
    "single_phase_config",
    "multiphase_config",
    "run_single_record",
    "run_multi_record",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime."""

    population_size: int = 200
    generations_single: int = 500
    generations_phase: int = 100
    max_phases: int = 5
    runs_hanoi: int = 10
    runs_tile: int = 50
    hanoi_disks: tuple = (5, 6, 7)
    tile_sizes: tuple = (3, 4)
    early_stop_in_phase: bool = False
    label: str = "paper"

    @staticmethod
    def paper() -> "ExperimentScale":
        return ExperimentScale()

    @staticmethod
    def scaled(
        population_size: int = 80,
        generations_single: int = 120,
        generations_phase: int = 60,
        runs_hanoi: int = 3,
        runs_tile: int = 5,
        hanoi_disks: tuple = (4, 5),
        tile_sizes: tuple = (3,),
    ) -> "ExperimentScale":
        """Fast regime for the default bench suite (~seconds per cell)."""
        return ExperimentScale(
            population_size=population_size,
            generations_single=generations_single,
            generations_phase=generations_phase,
            max_phases=5,
            runs_hanoi=runs_hanoi,
            runs_tile=runs_tile,
            hanoi_disks=hanoi_disks,
            tile_sizes=tile_sizes,
            early_stop_in_phase=True,
            label="scaled",
        )


def scale_from_env() -> ExperimentScale:
    """``REPRO_FULL=1`` → paper fidelity; anything else → scaled."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return ExperimentScale.paper()
    return ExperimentScale.scaled()


# -- parameter tables (Tables 1 and 3) ----------------------------------------


def hanoi_parameter_table(scale: Optional[ExperimentScale] = None) -> Table:
    """Table 1: parameter settings for the Towers of Hanoi experiments."""
    s = scale or ExperimentScale.paper()
    t = Table("Table 1: Towers of Hanoi GA parameters", ["Parameter", "Value"])
    t.add_row("Population size", s.population_size)
    t.add_row("Number of generations", s.generations_single)
    t.add_row("Crossover rate", 0.9)
    t.add_row("Mutation rate", 0.01)
    t.add_row("Selection scheme", "Tournament (2)")
    t.add_row("Weight of goal fitness", 0.9)
    t.add_row("Weight of cost fitness", 0.1)
    t.add_row("Number of disks", ", ".join(str(d) for d in s.hanoi_disks))
    t.add_row("Number of phases in multi-phase GA", s.max_phases)
    return t


def tile_parameter_table(scale: Optional[ExperimentScale] = None) -> Table:
    """Table 3: parameter settings for the Sliding-tile puzzle experiments."""
    s = scale or ExperimentScale.paper()
    t = Table("Table 3: Sliding-tile puzzle GA parameters", ["Parameter", "Value"])
    t.add_row("Population size", s.population_size)
    t.add_row("Number of generations", s.generations_single)
    t.add_row("Crossover type", "Random / State-aware / Mixed")
    t.add_row("Crossover rate", 0.9)
    t.add_row("Mutation rate", 0.01)
    t.add_row("Selection scheme", "Tournament (2)")
    t.add_row("Weight of goal fitness", 0.9)
    t.add_row("Weight of cost fitness", 0.1)
    t.add_row("Board size (n)", ", ".join(str(n) for n in s.tile_sizes))
    t.add_row("Number of phases in multi-phase GA", s.max_phases)
    return t


# -- shared run records ---------------------------------------------------------


@dataclass
class RunRecord:
    """Per-run measurements shared by the experiment specs and ablations."""

    goal_fitness: float
    size: int
    solved: bool
    generations: Optional[int]  # generations consumed when a solution appeared
    solved_in_phase: Optional[int]
    elapsed_seconds: float


def single_phase_config(scale: ExperimentScale, max_len: int, init_length: int, crossover: str) -> GAConfig:
    """Paper-parameter single-phase :class:`GAConfig` at the given scale."""
    return GAConfig(
        population_size=scale.population_size,
        generations=scale.generations_single,
        crossover_rate=0.9,
        mutation_rate=0.01,
        crossover=crossover,
        tournament_size=2,
        goal_weight=0.9,
        cost_weight=0.1,
        max_len=max_len,
        init_length=min(init_length, max_len),
        stop_on_goal=True,
    )


def multiphase_config(scale: ExperimentScale, max_len: int, init_length: int, crossover: str) -> MultiPhaseConfig:
    """Paper-parameter :class:`MultiPhaseConfig` at the given scale."""
    phase = GAConfig(
        population_size=scale.population_size,
        generations=scale.generations_phase,
        crossover_rate=0.9,
        mutation_rate=0.01,
        crossover=crossover,
        tournament_size=2,
        goal_weight=0.9,
        cost_weight=0.1,
        max_len=max_len,
        init_length=min(init_length, max_len),
        stop_on_goal=False,
    )
    return MultiPhaseConfig(
        max_phases=scale.max_phases, phase=phase, early_stop_in_phase=scale.early_stop_in_phase
    )


def run_single_record(domain, config: GAConfig, rng) -> RunRecord:
    """Run one single-phase GA trial and fold the result into a :class:`RunRecord`."""
    result = run_ga(domain, config, rng)
    decoded = result.best.decoded
    return RunRecord(
        goal_fitness=result.best.fitness.goal,
        size=len(decoded.operations),
        solved=result.best.fitness.goal_reached,
        generations=result.solved_at_generation,
        solved_in_phase=1 if result.best.fitness.goal_reached else None,
        elapsed_seconds=result.elapsed_seconds,
    )


def run_multi_record(domain, config: MultiPhaseConfig, rng) -> RunRecord:
    """Run one multi-phase GA trial and fold the result into a :class:`RunRecord`."""
    result = run_multiphase(domain, config, rng)
    return RunRecord(
        goal_fitness=result.goal_fitness,
        size=result.plan_length,
        solved=result.solved,
        generations=result.total_generations if result.solved else None,
        solved_in_phase=result.solved_in_phase,
        elapsed_seconds=result.elapsed_seconds,
    )
