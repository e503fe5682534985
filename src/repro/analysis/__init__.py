"""Experiment scale, parameter tables, figures, ablations and statistics."""

from repro.analysis.ablations import (
    crossover_on_hanoi,
    maxlen_sweep,
    phase_budget_sweep,
    seeding_study,
    weight_sweep,
)
from repro.analysis.baselines import planner_comparison
from repro.analysis.experiments import (
    ExperimentScale,
    hanoi_max_len,
    hanoi_parameter_table,
    scale_from_env,
    tile_init_length,
    tile_max_len,
    tile_parameter_table,
)
from repro.analysis.profiling import profile_call
from repro.analysis.render import figure1, figure2, figure3, render_hanoi, render_tile_board
from repro.analysis.tables import Table

__all__ = [
    "ExperimentScale", "Table", "crossover_on_hanoi", "figure1", "figure2", "figure3",
    "hanoi_max_len", "hanoi_parameter_table", "maxlen_sweep", "phase_budget_sweep",
    "planner_comparison", "profile_call", "render_hanoi", "render_tile_board",
    "scale_from_env", "seeding_study", "tile_init_length", "tile_max_len", "tile_parameter_table",
    "weight_sweep",
]

from repro.analysis.fitness_study import fitness_accuracy_study  # noqa: E402

__all__ += ["fitness_accuracy_study"]

from repro.analysis.stats_util import (  # noqa: E402
    MeanCI,
    bootstrap_ci,
    mann_whitney,
    mean_ci,
    summarize,
)

__all__ += ["MeanCI", "bootstrap_ci", "mann_whitney", "mean_ci", "summarize"]
