"""repro.exp — declarative experiment orchestration.

Every paper table/figure and ablation is *data*: an
:class:`ExperimentSpec` names the axes (GA type, disk count, crossover,
…), the per-trial function, the trial count and the aggregation that
turns recorded trials back into the paper-shaped table.  The
:class:`SweepRunner` fans trials out over a worker pool, appends one
JSONL :class:`TrialRecord` per trial (config-hash + git-revision
provenance) and resumes a killed sweep from the completed records.  The
report layer (:mod:`repro.exp.report`) aggregates records into tables,
mean ± CI summaries and Wilcoxon comparisons, and regenerates the marked
sections of ``EXPERIMENTS.md`` — documentation as a build artifact.

The CLI surface is ``python -m repro exp {list,run,status,resume,report}``.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`); the built-in specs register on the first registry
lookup (:mod:`repro.exp.registry`).
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "ABLATION_SEEDS": "defaults",
    "DEFAULT_RESULTS_ROOT": "defaults",
    "GRID_SEED": "defaults",
    "PAPER_SEED": "defaults",
    "SCHEDULE_SEED": "defaults",
    "default_out_dir": "defaults",
    "TrialRecord": "records",
    "append_record": "records",
    "git_revision": "records",
    "load_records": "records",
    "read_manifest": "records",
    "write_manifest": "records",
    "get_spec": "registry",
    "list_specs": "registry",
    "register": "registry",
    "spec_names": "registry",
    "experiment_report": "report",
    "markdown_table": "report",
    "render_sections": "report",
    "update_experiments_md": "report",
    "SweepResult": "runner",
    "SweepRunner": "runner",
    "SweepStatus": "runner",
    "run_inline": "runner",
    "sweep_status": "runner",
    "Comparison": "spec",
    "ExperimentSpec": "spec",
    "TrialSpec": "spec",
    "config_hash": "spec",
    "derive_seed": "spec",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
