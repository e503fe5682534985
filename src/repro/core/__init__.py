"""GA planning core: the paper's primary contribution.

Public surface:

- :class:`GAConfig` / :class:`MultiPhaseConfig` — run parameters
- :class:`GAPlanner` — one-call facade
- :class:`GARun` / :func:`run_ga` — single-phase engine
- :func:`run_multiphase` — the multi-phase algorithm
- :func:`decode` / :func:`encode_operations` — the indirect encoding
- :class:`PopulationBuffer` — the population representation

The single-run engine (configuration, encoding, fitness, ``ga`` with its
evaluators and both decoders, the population buffer, RNG, statistics and
termination) loads with the package, since every caller runs it.  The
drivers built on it — ``planner``, ``multiphase``, ``portfolio``,
``resilient`` and ``checkpoint`` — load on first access to one of their
names (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "Checkpoint": "checkpoint",
    "CheckpointError": "checkpoint",
    "checkpoint_path": "checkpoint",
    "load_checkpoint": "checkpoint",
    "load_latest_checkpoint": "checkpoint",
    "restore_run": "checkpoint",
    "save_checkpoint": "checkpoint",
    "CROSSOVER_KINDS": "config",
    "GAConfig": "config",
    "MultiPhaseConfig": "config",
    "PortfolioSpec": "config",
    "STRATEGY_KINDS": "config",
    "StrategySpec": "config",
    "DecodeEngine": "decode_engine",
    "TransitionCache": "decode_engine",
    "DecodeCache": "encoding",
    "DecodedPlan": "encoding",
    "decode": "encoding",
    "encode_operations": "encoding",
    "gene_to_index": "encoding",
    "FitnessFunction": "fitness",
    "FitnessResult": "fitness",
    "cost_fitness": "fitness",
    "GAResult": "ga",
    "GARun": "ga",
    "initial_population": "ga",
    "run_ga": "ga",
    "MultiPhaseResult": "multiphase",
    "PhaseRecord": "multiphase",
    "run_multiphase": "multiphase",
    "EvaluationContext": "parallel",
    "Evaluator": "parallel",
    "ProcessPoolEvaluator": "parallel",
    "SerialEvaluator": "parallel",
    "WorkerPoolError": "parallel",
    "build_evaluators": "parallel",
    "GAPlanner": "planner",
    "IncumbentStream": "planner",
    "PLANNING_MODES": "planner",
    "PlanningOutcome": "planner",
    "PopulationBuffer": "popbuffer",
    "Incumbent": "portfolio",
    "PortfolioResult": "portfolio",
    "default_portfolio": "portfolio",
    "parse_portfolio": "portfolio",
    "ring_portfolio": "portfolio",
    "run_portfolio": "portfolio",
    "ResiliencePolicy": "resilient",
    "ResilientEvaluator": "resilient",
    "make_rng": "rng",
    "spawn": "rng",
    "spawn_many": "rng",
    "GenerationStats": "stats",
    "RunHistory": "stats",
    "Deadline": "termination",
    "FitnessTarget": "termination",
    "GenerationLimit": "termination",
    "Stagnation": "termination",
    "all_of": "termination",
    "any_of": "termination",
    "canonical_events": ".obs.events",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(
    __name__,
    _EXPORTS,
    eager=(
        "config", "decode_engine", "encoding", "fitness", "ga", "parallel",
        "popbuffer", "rng", "stats", "termination",
    ),
)
