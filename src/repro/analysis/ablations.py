"""Ablation studies beyond the paper's tables (DESIGN.md §5).

Each driver returns a :class:`Table` like the main experiments; they probe
the design choices the paper discusses without measuring: crossover choice
on Hanoi, MaxLen sensitivity, fitness-weight balance, how to split a fixed
generation budget into phases, and GenPlan-style population seeding.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.experiments import (
    ExperimentScale,
    multiphase_config,
    run_multi_record,
    run_single_record,
    single_phase_config,
    hanoi_max_len,
    scale_from_env,
)
from repro.analysis.tables import Table
from repro.core import (
    MultiPhaseConfig,
    encode_operations,
    make_rng,
    run_ga,
    spawn_many,
)
from repro.domains.hanoi import HanoiDomain, optimal_hanoi_moves

__all__ = [
    "crossover_on_hanoi",
    "maxlen_sweep",
    "weight_sweep",
    "phase_budget_sweep",
    "seeding_study",
]


def crossover_on_hanoi(
    scale: Optional[ExperimentScale] = None, seed: int = 7, n_disks: int = 5
) -> Table:
    """Do state-aware/mixed crossover help Hanoi too?  (Paper only tried
    random crossover on Hanoi.)"""
    s = scale or scale_from_env()
    root = make_rng(seed)
    domain = HanoiDomain(n_disks)
    table = Table(
        f"Ablation: crossover type on Hanoi-{n_disks} ({s.label} scale)",
        ["Crossover", "Avg Goal Fitness", "Solved Runs", "Total Runs", "Avg Size"],
    )
    for crossover in ("random", "state-aware", "mixed"):
        cfg = multiphase_config(s, hanoi_max_len(n_disks), domain.optimal_length, crossover)
        records = [run_multi_record(domain, cfg, rng) for rng in spawn_many(root, s.runs_hanoi)]
        solved = sum(r.solved for r in records)
        table.add_row(
            crossover,
            round(sum(r.goal_fitness for r in records) / len(records), 3),
            solved,
            len(records),
            round(sum(r.size for r in records) / len(records), 1),
        )
    return table


def maxlen_sweep(
    scale: Optional[ExperimentScale] = None,
    seed: int = 11,
    n_disks: int = 5,
    multipliers: Sequence[float] = (1, 2, 5, 10),
) -> Table:
    """MaxLen sensitivity: "chosen to ensure GA search quality while not
    incurring too much computation time" — this quantifies the trade."""
    s = scale or scale_from_env()
    root = make_rng(seed)
    domain = HanoiDomain(n_disks)
    optimal = domain.optimal_length
    table = Table(
        f"Ablation: MaxLen on Hanoi-{n_disks}, single-phase ({s.label} scale)",
        ["MaxLen (x optimal)", "MaxLen", "Avg Goal Fitness", "Solved Runs", "Total Runs", "Avg Time (s)"],
    )
    for mult in multipliers:
        max_len = max(optimal, int(mult * optimal))
        cfg = single_phase_config(s, max_len, optimal, "random")
        records = [run_single_record(domain, cfg, rng) for rng in spawn_many(root, s.runs_hanoi)]
        table.add_row(
            mult,
            max_len,
            round(sum(r.goal_fitness for r in records) / len(records), 3),
            sum(r.solved for r in records),
            len(records),
            round(sum(r.elapsed_seconds for r in records) / len(records), 2),
        )
    return table


def weight_sweep(
    scale: Optional[ExperimentScale] = None,
    seed: int = 13,
    n_disks: int = 5,
    goal_weights: Sequence[float] = (0.5, 0.7, 0.9, 1.0),
) -> Table:
    """Goal/cost weight balance (paper uses 0.9/0.1)."""
    s = scale or scale_from_env()
    root = make_rng(seed)
    domain = HanoiDomain(n_disks)
    table = Table(
        f"Ablation: fitness weights on Hanoi-{n_disks} ({s.label} scale)",
        ["w_goal", "w_cost", "Avg Goal Fitness", "Solved Runs", "Total Runs", "Avg Size"],
    )
    for wg in goal_weights:
        cfg = single_phase_config(s, hanoi_max_len(n_disks), domain.optimal_length, "random")
        cfg = cfg.replace(goal_weight=wg, cost_weight=round(1.0 - wg, 10))
        records = [run_single_record(domain, cfg, rng) for rng in spawn_many(root, s.runs_hanoi)]
        table.add_row(
            wg,
            round(1.0 - wg, 3),
            round(sum(r.goal_fitness for r in records) / len(records), 3),
            sum(r.solved for r in records),
            len(records),
            round(sum(r.size for r in records) / len(records), 1),
        )
    return table


def phase_budget_sweep(
    scale: Optional[ExperimentScale] = None,
    seed: int = 17,
    n_disks: int = 5,
    splits: Sequence[int] = (1, 2, 5, 10),
) -> Table:
    """Same total generation budget, different phase counts.

    Probes the paper's central claim — that restarting from the best final
    state beats one long run — while holding compute constant.
    """
    s = scale or scale_from_env()
    root = make_rng(seed)
    domain = HanoiDomain(n_disks)
    total = s.generations_single
    table = Table(
        f"Ablation: phase budget split on Hanoi-{n_disks}, {total} total generations ({s.label} scale)",
        ["Phases", "Gens/Phase", "Avg Goal Fitness", "Solved Runs", "Total Runs"],
    )
    for n_phases in splits:
        per_phase = max(1, total // n_phases)
        phase_cfg = single_phase_config(
            s, hanoi_max_len(n_disks), domain.optimal_length, "random"
        ).replace(generations=per_phase, stop_on_goal=False)
        mp = MultiPhaseConfig(
            max_phases=n_phases, phase=phase_cfg, early_stop_in_phase=s.early_stop_in_phase
        )
        records = [run_multi_record(domain, mp, rng) for rng in spawn_many(root, s.runs_hanoi)]
        table.add_row(
            n_phases,
            per_phase,
            round(sum(r.goal_fitness for r in records) / len(records), 3),
            sum(r.solved for r in records),
            len(records),
        )
    return table


def seeding_study(
    scale: Optional[ExperimentScale] = None,
    seed: int = 19,
    n_disks: int = 5,
    seed_fractions: Sequence[float] = (0.0, 0.05, 0.25),
) -> Table:
    """GenPlan-style seeding (related work [22]): inject noisy encodings of a
    *prefix* of the optimal plan into the initial population."""
    s = scale or scale_from_env()
    root = make_rng(seed)
    domain = HanoiDomain(n_disks)
    optimal = optimal_hanoi_moves(n_disks)
    prefix = optimal[: len(optimal) // 2]  # partial solution, as in [22]
    table = Table(
        f"Ablation: population seeding on Hanoi-{n_disks} ({s.label} scale)",
        ["Seed Fraction", "Avg Goal Fitness", "Solved Runs", "Total Runs", "Avg Gens"],
    )
    for frac in seed_fractions:
        cfg = single_phase_config(s, hanoi_max_len(n_disks), domain.optimal_length, "random")
        n_seeds = int(frac * cfg.population_size)
        records = []
        for rng in spawn_many(root, s.runs_hanoi):
            seeds = [
                encode_operations(domain, domain.initial_state, prefix, rng=rng)
                for _ in range(n_seeds)
            ]
            result = run_ga(domain, cfg, rng, seeds=seeds)
            records.append(_run_single_result(result))
        solved = [r for r in records if r["solved"]]
        gens = [r["gens"] for r in solved if r["gens"] is not None]
        table.add_row(
            frac,
            round(sum(r["goal"] for r in records) / len(records), 3),
            len(solved),
            len(records),
            round(sum(gens) / len(gens), 1) if gens else "-",
        )
    return table


def _run_single_result(result) -> dict:
    return {
        "goal": result.best.fitness.goal,
        "solved": result.best.fitness.goal_reached,
        "gens": result.solved_at_generation,
    }
