"""Shared experiment constants: seeds, trial counts, result locations.

These used to be duplicated across ``benchmarks/conftest.py``, the bench
scripts and the CLI defaults; they live here so a seed is defined exactly
once.  This module must stay dependency-free (no ``repro.analysis``
imports) because both the analysis drivers and the benches import it.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "PAPER_SEED",
    "ABLATION_SEEDS",
    "GRID_SEED",
    "SCHEDULE_SEED",
    "DEFAULT_RESULTS_ROOT",
    "default_out_dir",
]

#: Root seed for every paper-table reproduction (the paper's publication year).
PAPER_SEED = 2003

#: Per-study seeds for the ablation suite (distinct primes so no two studies
#: share an RNG stream by accident).
ABLATION_SEEDS = {
    "crossover": 7,
    "maxlen": 11,
    "weights": 13,
    "phases": 17,
    "seeding": 19,
    "islands": 23,
    "baselines": 23,
    "fitness": 29,
}

#: Seed for the grid-workflow bench / example runs.
GRID_SEED = 31

#: Seed for the scheduling-heuristics table.
SCHEDULE_SEED = 1

#: Where sweeps record trials unless told otherwise, relative to the
#: repository root (the committed sweeps under version control live here).
DEFAULT_RESULTS_ROOT = Path("benchmarks") / "results" / "exp"


def default_out_dir(experiment: str, root: Path | str | None = None) -> Path:
    """Per-experiment record directory under the results root.

    Parameters
    ----------
    experiment:
        Registered experiment name (e.g. ``"table2-hanoi"``).
    root:
        Results root to resolve against; defaults to
        :data:`DEFAULT_RESULTS_ROOT`.

    Returns
    -------
    Path
        ``<root>/<experiment>`` (not created).
    """
    return Path(root if root is not None else DEFAULT_RESULTS_ROOT) / experiment
