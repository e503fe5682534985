"""Long-running digital-twin soak mode (DESIGN.md §13).

An open-ended co-simulation of the grid: a seeded arrival stream of
workflow requests (``arrival:`` clauses in the :mod:`repro.faults` spec
grammar), a deterministic churn timeline injecting machine/link faults
over hours of simulated time, and a :class:`~repro.soak.controller.
ReplanController` that replans invalidated in-flight work *incrementally*
through a degradation ladder (prefix repair → warm-population GA →
greedy fallback → shed) bounded by per-request deadlines.

Entry points: :func:`run_soak` / :class:`SoakRunner` from Python and
``python -m repro soak`` from the command line; the benchmark harness's
``soak-churn`` workload (``benchmarks/harness``) measures replan latency
and goal completion under heavy churn.
"""

from repro.soak.arrivals import (
    ArrivalStream,
    WorkflowRequest,
    request_domain,
    soak_ontology,
)
from repro.soak.controller import ReplanController, ReplanDecision
from repro.soak.runner import SoakConfig, SoakReport, SoakRunner, run_soak

__all__ = [
    "ArrivalStream",
    "ReplanController",
    "ReplanDecision",
    "SoakConfig",
    "SoakReport",
    "SoakRunner",
    "WorkflowRequest",
    "request_domain",
    "run_soak",
    "soak_ontology",
]
