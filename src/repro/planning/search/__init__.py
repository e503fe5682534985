"""Baseline planners: classical, local/randomized, and Graphplan.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`): a portfolio's resumable search loads none of the
other planners.  ``graphplan`` loads with the package: it names both a
module and its planner, and an import of the module after the package
would otherwise rebind the package's ``graphplan`` to the module.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "SearchResult": "classical",
    "astar": "classical",
    "breadth_first_search": "classical",
    "idastar": "classical",
    "uniform_cost_search": "classical",
    "weighted_astar": "classical",
    "PlanningGraph": "graphplan",
    "graphplan": "graphplan",
    "goal_count": "heuristics",
    "goal_gap": "heuristics",
    "make_h_add": "heuristics",
    "make_h_max": "heuristics",
    "zero_heuristic": "heuristics",
    "greedy_best_first": "local",
    "hill_climbing": "local",
    "random_walk_planner": "local",
    "ResumableSearch": "resumable",
    "SEARCH_ALGORITHMS": "resumable",
    "make_resumable_search": "resumable",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS, eager=("graphplan",))
