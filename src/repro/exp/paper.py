"""Built-in experiment specs: the paper's result tables as data.

Each spec is the only definition of one paper result table (2, 4 or 5):
a declarative grid + trial function + aggregation run by the shared
:class:`~repro.exp.runner.SweepRunner` (resume, provenance,
parallelism).  ``repro table N``, ``repro exp`` and the
``benchmarks/bench_table*.py`` benches all run these specs.  The trial
functions build their configs with :mod:`repro.analysis.experiments`
and seed each trial from the spec's base seed and the trial id, which
is what makes individual trials resumable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.experiments import (
    ExperimentScale,
    RunRecord,
    hanoi_max_len,
    multiphase_config,
    run_multi_record,
    run_single_record,
    single_phase_config,
    tile_init_length,
    tile_max_len,
)
from repro.analysis.tables import Table
from repro.core import make_rng
from repro.exp.records import TrialRecord
from repro.exp.registry import register
from repro.exp.spec import Comparison, ExperimentSpec

__all__ = ["TABLE2_HANOI", "TABLE4_TILE", "TABLE5_PHASES", "record_metrics"]

GA_TYPES = ("single-phase", "multi-phase")
CROSSOVERS_T4 = ("state-aware", "random", "mixed")  # paper Table 4 row order
CROSSOVERS_T5 = ("random", "state-aware", "mixed")  # paper Table 5 column order


def record_metrics(rec: RunRecord) -> Dict[str, object]:
    """Flatten a :class:`RunRecord` into the JSONL metrics payload."""
    return {
        "goal_fitness": rec.goal_fitness,
        "size": rec.size,
        "solved": rec.solved,
        "generations": rec.generations,
        "solved_in_phase": rec.solved_in_phase,
        "elapsed_seconds": round(rec.elapsed_seconds, 6),
    }


def _group(records: Sequence[TrialRecord], *axes: str) -> Dict[tuple, List[TrialRecord]]:
    """Bucket ok-records by the given cell axes (insertion order preserved)."""
    groups: Dict[tuple, List[TrialRecord]] = {}
    for rec in records:
        if not rec.ok:
            continue
        groups.setdefault(tuple(rec.cell[a] for a in axes), []).append(rec)
    return groups


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# -- Table 2: Towers of Hanoi --------------------------------------------------


def hanoi_trial(cell: dict, seed: int, scale: ExperimentScale) -> Dict[str, object]:
    """One Table-2 trial: single- or multi-phase GA on n-disk Hanoi."""
    from repro.domains.registry import create as create_domain

    n_disks = int(cell["disks"])
    domain = create_domain("hanoi", n_disks)
    max_len = hanoi_max_len(n_disks)
    init = domain.optimal_length
    rng = make_rng(seed)
    if cell["ga_type"] == "single-phase":
        rec = run_single_record(
            domain, single_phase_config(scale, max_len, init, "random"), rng
        )
    else:
        rec = run_multi_record(
            domain, multiphase_config(scale, max_len, init, "random"), rng
        )
    return record_metrics(rec)


def aggregate_table2(
    spec: ExperimentSpec, records: Sequence[TrialRecord], scale: ExperimentScale
) -> Table:
    """Fold Table-2 trial records into the paper's row layout."""
    table = Table(
        f"Table 2: Towers of Hanoi results ({scale.label} scale)",
        [
            "GA Type",
            "Disks",
            "Avg Goal Fitness",
            "Avg Size of Solution",
            "Avg Gens to Find Solution",
            "Solved Runs",
            "Total Runs",
        ],
    )
    groups = _group(records, "ga_type", "disks")
    for ga_type in spec.axes_for(scale)["ga_type"]:
        for disks in spec.axes_for(scale)["disks"]:
            cell = groups.get((ga_type, disks), [])
            if not cell:
                continue
            solved = [r for r in cell if r.metrics["solved"] and r.metrics["generations"]]
            avg_gens = (
                round(_mean([r.metrics["generations"] for r in solved]), 1)
                if solved
                else "-"
            )
            table.add_row(
                ga_type,
                disks,
                round(_mean([r.metrics["goal_fitness"] for r in cell]), 3),
                round(_mean([r.metrics["size"] for r in cell]), 1),
                avg_gens,
                len(solved),
                len(cell),
            )
    return table


TABLE2_HANOI = register(
    ExperimentSpec(
        name="table2-hanoi",
        title="Table 2: Towers of Hanoi, single- vs multi-phase GA",
        description=(
            "Goal fitness, solution size and generations-to-solution across "
            "disk counts; the claim is multi-phase >= single-phase at every "
            "size, with fitness decreasing in disk count."
        ),
        axes=lambda s: {"ga_type": GA_TYPES, "disks": s.hanoi_disks},
        trial_fn=hanoi_trial,
        trials=lambda s: s.runs_hanoi,
        aggregate_fn=aggregate_table2,
        ci_metrics=("goal_fitness", "size"),
        comparisons=(
            Comparison(
                metric="goal_fitness",
                axis="ga_type",
                a="multi-phase",
                b="single-phase",
                groupby=("disks",),
            ),
        ),
    )
)


# -- Table 4: Sliding-tile puzzle ---------------------------------------------


def tile_trial(cell: dict, seed: int, scale: ExperimentScale) -> Dict[str, object]:
    """One Table-4/5 trial: the multi-phase GA on the n×n tile puzzle."""
    from repro.domains.registry import create as create_domain

    n = int(cell["n"])
    domain = create_domain("tile", n)
    cfg = multiphase_config(scale, tile_max_len(n), tile_init_length(n), cell["crossover"])
    return record_metrics(run_multi_record(domain, cfg, make_rng(seed)))


def aggregate_table4(
    spec: ExperimentSpec, records: Sequence[TrialRecord], scale: ExperimentScale
) -> Table:
    """Fold Table-4 trial records into the paper's row layout."""
    table = Table(
        f"Table 4: Sliding-tile puzzle results ({scale.label} scale)",
        [
            "Crossover",
            "Tiles",
            "Avg Goal Fitness",
            "Avg Size of Solution",
            "Runs Finding Valid Solution",
            "Total Runs",
            "Avg Time (s)",
        ],
    )
    groups = _group(records, "crossover", "n")
    for crossover in spec.axes_for(scale)["crossover"]:
        for n in spec.axes_for(scale)["n"]:
            cell = groups.get((crossover, n), [])
            if not cell:
                continue
            table.add_row(
                crossover,
                n * n,
                round(_mean([r.metrics["goal_fitness"] for r in cell]), 3),
                round(_mean([r.metrics["size"] for r in cell]), 2),
                sum(1 for r in cell if r.metrics["solved"]),
                len(cell),
                round(_mean([r.metrics["elapsed_seconds"] for r in cell]), 2),
            )
    return table


TABLE4_TILE = register(
    ExperimentSpec(
        name="table4-tile",
        title="Table 4: Sliding-tile puzzle, crossover type × board size",
        description=(
            "The three crossovers score closely on one board; 3×3 is solved "
            "nearly every run, 4×4 almost never; size and wall-clock grow "
            "sharply from 9 to 16 tiles."
        ),
        axes=lambda s: {"crossover": CROSSOVERS_T4, "n": s.tile_sizes},
        trial_fn=tile_trial,
        trials=lambda s: s.runs_tile,
        aggregate_fn=aggregate_table4,
        ci_metrics=("goal_fitness", "size", "elapsed_seconds"),
        comparisons=(
            Comparison(
                metric="size",
                axis="crossover",
                a="state-aware",
                b="random",
                groupby=("n",),
            ),
        ),
    )
)


# -- Table 5: phase of first valid solution -----------------------------------


def aggregate_table5(
    spec: ExperimentSpec, records: Sequence[TrialRecord], scale: ExperimentScale
) -> Table:
    """Fold Table-5 trial records into runs-per-phase counts."""
    axes = spec.axes_for(scale)
    n = axes["n"][0]
    table = Table(
        f"Table 5: runs finding a valid solution per phase, {n}x{n} ({scale.label} scale)",
        ["Phase", "Random", "State-aware", "Mixed"],
    )
    groups = _group(records, "crossover")
    counts = {}
    for crossover in CROSSOVERS_T5:
        per_phase = [0] * scale.max_phases
        for rec in groups.get((crossover,), []):
            phase = rec.metrics.get("solved_in_phase")
            if phase is not None:
                per_phase[int(phase) - 1] += 1
        counts[crossover] = per_phase
    for phase in range(scale.max_phases):
        table.add_row(
            phase + 1,
            counts["random"][phase],
            counts["state-aware"][phase],
            counts["mixed"][phase],
        )
    return table


TABLE5_PHASES = register(
    ExperimentSpec(
        name="table5-phases",
        title="Table 5: phase in which the first valid solution appears (3×3)",
        description=(
            "Distribution of the first solving phase per crossover; "
            "state-aware and mixed mostly solve in phase 1, random needs "
            "phase 2 more often, and almost everything resolves within two "
            "phases."
        ),
        axes={"crossover": CROSSOVERS_T5, "n": (3,)},
        trial_fn=tile_trial,
        trials=lambda s: s.runs_tile,
        aggregate_fn=aggregate_table5,
        comparisons=(
            Comparison(
                metric="solved_in_phase",
                axis="crossover",
                a="state-aware",
                b="random",
                groupby=("n",),
            ),
        ),
    )
)
