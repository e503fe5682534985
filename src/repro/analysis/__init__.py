"""Experiment scale, parameter tables, figures, ablations and statistics.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`): a caller of one table builder loads neither the
ablation drivers nor the planner comparison.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "crossover_on_hanoi": "ablations",
    "maxlen_sweep": "ablations",
    "phase_budget_sweep": "ablations",
    "seeding_study": "ablations",
    "weight_sweep": "ablations",
    "planner_comparison": "baselines",
    "ExperimentScale": "experiments",
    "hanoi_max_len": "experiments",
    "hanoi_parameter_table": "experiments",
    "scale_from_env": "experiments",
    "tile_init_length": "experiments",
    "tile_max_len": "experiments",
    "tile_parameter_table": "experiments",
    "fitness_accuracy_study": "fitness_study",
    "profile_call": "profiling",
    "figure1": "render",
    "figure2": "render",
    "figure3": "render",
    "render_hanoi": "render",
    "render_tile_board": "render",
    "MeanCI": "stats_util",
    "bootstrap_ci": "stats_util",
    "mann_whitney": "stats_util",
    "mean_ci": "stats_util",
    "summarize": "stats_util",
    "Table": "tables",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
