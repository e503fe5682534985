"""GA planning core: the paper's primary contribution.

Public surface:

- :class:`GAConfig` / :class:`MultiPhaseConfig` — run parameters
- :class:`GAPlanner` — one-call facade
- :class:`GARun` / :func:`run_ga` — single-phase engine
- :func:`run_multiphase` — the multi-phase algorithm
- :func:`decode` / :func:`encode_operations` — the indirect encoding
- :class:`PopulationBuffer` — the population representation
"""

from repro.core.config import GAConfig, MultiPhaseConfig, CROSSOVER_KINDS
from repro.core.decode_engine import DecodeEngine, TransitionCache
from repro.core.encoding import DecodeCache, DecodedPlan, decode, encode_operations, gene_to_index
from repro.core.fitness import FitnessFunction, FitnessResult, cost_fitness
from repro.core.ga import GAResult, GARun, initial_population, run_ga
from repro.core.multiphase import MultiPhaseResult, PhaseRecord, run_multiphase
from repro.core.parallel import (
    EvaluationContext,
    Evaluator,
    ProcessPoolEvaluator,
    SerialEvaluator,
    WorkerPoolError,
)
from repro.core.popbuffer import PopulationBuffer
from repro.core.resilient import ResiliencePolicy, ResilientEvaluator
from repro.core.planner import GAPlanner, PLANNING_MODES, PlanningOutcome
from repro.core.rng import make_rng, spawn, spawn_many
from repro.core.stats import GenerationStats, RunHistory

__all__ = [
    "CROSSOVER_KINDS",
    "DecodeCache",
    "DecodeEngine",
    "DecodedPlan",
    "EvaluationContext",
    "Evaluator",
    "FitnessFunction",
    "FitnessResult",
    "GAConfig",
    "GAPlanner",
    "GAResult",
    "GARun",
    "GenerationStats",
    "MultiPhaseConfig",
    "MultiPhaseResult",
    "PLANNING_MODES",
    "PhaseRecord",
    "PlanningOutcome",
    "PopulationBuffer",
    "ProcessPoolEvaluator",
    "ResiliencePolicy",
    "ResilientEvaluator",
    "RunHistory",
    "SerialEvaluator",
    "TransitionCache",
    "WorkerPoolError",
    "cost_fitness",
    "decode",
    "encode_operations",
    "gene_to_index",
    "initial_population",
    "make_rng",
    "run_ga",
    "run_multiphase",
    "spawn",
    "spawn_many",
]

from repro.core.termination import (  # noqa: E402
    Deadline,
    FitnessTarget,
    GenerationLimit,
    Stagnation,
    all_of,
    any_of,
)

__all__ += ["Deadline", "FitnessTarget", "GenerationLimit", "Stagnation", "all_of", "any_of"]

from repro.core.config import PortfolioSpec, StrategySpec, STRATEGY_KINDS  # noqa: E402
from repro.core.parallel import build_evaluators  # noqa: E402
from repro.core.planner import IncumbentStream  # noqa: E402
from repro.core.portfolio import (  # noqa: E402
    Incumbent,
    PortfolioResult,
    canonical_events,
    default_portfolio,
    parse_portfolio,
    ring_portfolio,
    run_portfolio,
)

__all__ += [
    "Incumbent",
    "IncumbentStream",
    "PortfolioResult",
    "PortfolioSpec",
    "STRATEGY_KINDS",
    "StrategySpec",
    "build_evaluators",
    "canonical_events",
    "default_portfolio",
    "parse_portfolio",
    "ring_portfolio",
    "run_portfolio",
]

from repro.core.checkpoint import (  # noqa: E402
    Checkpoint,
    CheckpointError,
    checkpoint_path,
    load_checkpoint,
    load_latest_checkpoint,
    restore_run,
    save_checkpoint,
)

__all__ += [
    "Checkpoint",
    "CheckpointError",
    "checkpoint_path",
    "load_checkpoint",
    "load_latest_checkpoint",
    "restore_run",
    "save_checkpoint",
]
