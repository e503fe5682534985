"""Simulated heterogeneous grid: ontologies, workflows, societal services.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "Activity": "activity_graph",
    "ActivityGraph": "activity_graph",
    "plan_to_activity_graph": "activity_graph",
    "to_dot": "activity_graph",
    "Offer": "broker",
    "Placement": "broker",
    "PlacementError": "broker",
    "ResourceBroker": "broker",
    "RetryPolicy": "broker",
    "ReplicaCatalog": "catalog",
    "StorageFullError": "catalog",
    "Attempt": "coordination",
    "CoordinationReport": "coordination",
    "CoordinationService": "coordination",
    "ga_grid_planner": "coordination",
    "greedy_grid_planner": "coordination",
    "DataProduct": "data",
    "DataType": "data",
    "ProvenanceStep": "data",
    "random_grid": "generators",
    "random_pipeline": "generators",
    "Ontology": "ontology",
    "InputSpec": "programs",
    "OutputSpec": "programs",
    "ProgramSpec": "programs",
    "GridTopology": "resources",
    "Link": "resources",
    "Machine": "resources",
    "Site": "resources",
    "imaging_pipeline": "scenarios",
    "small_heterogeneous_grid": "scenarios",
    "ExecutionResult": "simulator",
    "GridEvent": "simulator",
    "GridSimulator": "simulator",
    "TaskRecord": "simulator",
    "GridWorkflowDomain": "workflow_domain",
    "RunProgram": "workflow_domain",
    "Transfer": "workflow_domain",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
