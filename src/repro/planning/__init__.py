"""STRIPS-like planning substrate: conditions, operations, problems, plans.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`), so a domain built on conditions and grounded
operators loads neither the PDDL parser nor plan reuse.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "StripsDomainAdapter": "adapter",
    "Atom": "conditions",
    "State": "conditions",
    "atom": "conditions",
    "format_atom": "conditions",
    "format_state": "conditions",
    "make_state": "conditions",
    "satisfies": "conditions",
    "OperatorSchema": "grounding",
    "ground_all": "grounding",
    "ground_schema": "grounding",
    "is_variable": "grounding",
    "Operation": "operation",
    "PddlDomain": "pddl",
    "PddlError": "pddl",
    "load_problem": "pddl",
    "parse_domain": "pddl",
    "parse_problem": "pddl",
    "Plan": "plan",
    "SimulationResult": "plan",
    "simulate": "plan",
    "PlanningProblem": "problem",
    "ReuseResult": "reuse",
    "reuse_plan": "reuse",
    "valid_prefix": "reuse",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
