"""Heterogeneous-computing scheduling substrate (Braun et al. benchmark).

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`): the heuristics, the ETC generator and the GA
scheduler load without networkx, which only the DAG scheduler (HEFT) needs.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "DagProblem": "dag",
    "DagSchedule": "dag",
    "heft": "dag",
    "random_layered_dag": "dag",
    "BATCH_HEURISTICS": "dynamic",
    "DynamicScheduleResult": "dynamic",
    "IMMEDIATE_HEURISTICS": "dynamic",
    "TaskArrival": "dynamic",
    "batch_mode": "dynamic",
    "immediate_mode": "dynamic",
    "poisson_arrivals": "dynamic",
    "CONSISTENCY_KINDS": "etc",
    "ETCParams": "etc",
    "HETEROGENEITY_RANGES": "etc",
    "generate_etc": "etc",
    "GASchedulerConfig": "ga_scheduler",
    "GASchedulerResult": "ga_scheduler",
    "ga_schedule": "ga_scheduler",
    "HEURISTICS": "heuristics",
    "max_min": "heuristics",
    "mct": "heuristics",
    "met": "heuristics",
    "min_min": "heuristics",
    "olb": "heuristics",
    "sufferage": "heuristics",
    "flowtime": "metrics",
    "machine_loads": "metrics",
    "makespan": "metrics",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
