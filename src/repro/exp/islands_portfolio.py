"""Experiment spec: heterogeneous portfolio vs ring islands vs one population.

Beyond-paper extension backing ``benchmarks/bench_ablation_islands.py``
and the ``islands-portfolio`` section of ``EXPERIMENTS.md``: at an equal
total population budget on n-disk Hanoi, compare

- ``single`` — one panmictic GA population,
- ``ring-islands`` — the homogeneous island model with ring migration
  (:func:`repro.core.ring_portfolio`),
- ``portfolio`` — the racing portfolio (:func:`repro.core.run_portfolio`):
  two GA strategies with different crossovers plus a greedy best-first
  search island, adaptive migration, first-solution cancellation.

Each trial records goal fitness, solution size and the wall-clock
time-to-first-solution (TTFS), so the aggregated table shows both
solution quality and the anytime advantage of racing heterogeneous
strategies.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.analysis.experiments import (
    ExperimentScale,
    hanoi_max_len,
    run_single_record,
    single_phase_config,
)
from repro.analysis.tables import Table
from repro.core import make_rng
from repro.exp.records import TrialRecord
from repro.exp.registry import register
from repro.exp.spec import Comparison, ExperimentSpec

__all__ = ["ISLANDS_PORTFOLIO", "STRUCTURES", "portfolio_trial"]

#: Population structures compared at an equal evaluation budget.
STRUCTURES = ("single", "ring-islands", "portfolio")

_N_ISLANDS = 4


def _base_config(scale: ExperimentScale, n_disks: int):
    from repro.domains import HanoiDomain

    domain = HanoiDomain(n_disks)
    cfg = single_phase_config(
        scale, hanoi_max_len(n_disks), domain.optimal_length, "random"
    )
    return domain, cfg


def portfolio_trial(cell: dict, seed: int, scale: ExperimentScale) -> Dict[str, object]:
    """One trial: run the cell's population structure on n-disk Hanoi."""
    from repro.core import PortfolioSpec, StrategySpec, ring_portfolio, run_portfolio

    n_disks = int(cell["disks"])
    domain, cfg = _base_config(scale, n_disks)
    rng = make_rng(seed)
    structure = cell["structure"]

    if structure == "single":
        rec = run_single_record(domain, cfg, rng)
        return {
            "goal_fitness": rec.goal_fitness,
            "size": rec.size,
            "solved": rec.solved,
            "ttfs_s": round(rec.elapsed_seconds, 6) if rec.solved else None,
            "elapsed_seconds": round(rec.elapsed_seconds, 6),
        }

    per_island = max(2, cfg.population_size // _N_ISLANDS)
    island_cfg = cfg.replace(population_size=per_island)

    migration_size = max(1, per_island // 10)
    if structure == "ring-islands":
        spec = ring_portfolio(island_cfg, _N_ISLANDS, 5, migration_size)
    else:
        # portfolio: two GA strategies with different crossovers plus a
        # racing greedy best-first search island, at the same per-island
        # budget.
        spec = PortfolioSpec(
            strategies=(
                StrategySpec(kind="ga", ga=island_cfg),
                StrategySpec(kind="ga", ga=island_cfg.replace(crossover="state-aware")),
                StrategySpec(kind="search", algorithm="gbfs", expansions_per_tick=64),
            ),
            interval=5,
            migration_size=migration_size,
        )
    result = run_portfolio(domain, spec, rng)
    best = result.best
    return {
        "goal_fitness": best.goal_fitness if best else 0.0,
        "size": len(best.plan) if best else 0,
        "solved": result.solved,
        "ttfs_s": (
            round(result.first_solution_wall_s, 6)
            if result.first_solution_wall_s is not None
            else None
        ),
        "elapsed_seconds": round(result.elapsed_seconds, 6),
    }


def aggregate_portfolio(
    spec: ExperimentSpec, records: Sequence[TrialRecord], scale: ExperimentScale
) -> Table:
    """Fold trial records into the structure × disks comparison table."""
    table = Table(
        f"Portfolio vs ring islands vs one population on Hanoi ({scale.label} scale)",
        [
            "Structure",
            "Disks",
            "Avg Goal Fitness",
            "Avg Size",
            "Solved Runs",
            "Total Runs",
            "Median TTFS (s)",
        ],
    )
    groups: Dict[tuple, List[TrialRecord]] = {}
    for rec in records:
        if rec.ok:
            groups.setdefault((rec.cell["structure"], rec.cell["disks"]), []).append(rec)
    axes = spec.axes_for(scale)
    for structure in axes["structure"]:
        for disks in axes["disks"]:
            cell = groups.get((structure, disks), [])
            if not cell:
                continue
            ttfs = [r.metrics["ttfs_s"] for r in cell if r.metrics["ttfs_s"] is not None]
            table.add_row(
                structure,
                disks,
                round(sum(r.metrics["goal_fitness"] for r in cell) / len(cell), 3),
                round(sum(r.metrics["size"] for r in cell) / len(cell), 1),
                sum(1 for r in cell if r.metrics["solved"]),
                len(cell),
                round(statistics.median(ttfs), 3) if ttfs else "-",
            )
    return table


ISLANDS_PORTFOLIO = register(
    ExperimentSpec(
        name="islands-portfolio",
        title="Islands ablation: racing portfolio vs ring migration vs one population",
        description=(
            "Equal total population budget on n-disk Hanoi; the claim is that "
            "the heterogeneous racing portfolio (GA crossover mix + greedy "
            "search island, adaptive migration, first-solution cancellation) "
            "solves at least as often as the homogeneous ring and reaches its "
            "first solution in far less wall-clock time."
        ),
        axes=lambda s: {"structure": STRUCTURES, "disks": s.hanoi_disks},
        trial_fn=portfolio_trial,
        trials=lambda s: s.runs_hanoi,
        aggregate_fn=aggregate_portfolio,
        ci_metrics=("goal_fitness", "elapsed_seconds"),
        comparisons=(
            Comparison(
                metric="goal_fitness",
                axis="structure",
                a="portfolio",
                b="ring-islands",
                groupby=("disks",),
            ),
        ),
    )
)
