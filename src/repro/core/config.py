"""Configuration for the GA planner.

Defaults follow the paper's Tables 1 and 3: population 200, 500 generations,
crossover rate 0.9, per-gene mutation rate 0.01, tournament selection of
size 2, goal-fitness weight 0.9 and cost-fitness weight 0.1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "GAConfig",
    "MultiPhaseConfig",
    "PortfolioSpec",
    "StrategySpec",
    "CROSSOVER_KINDS",
    "STRATEGY_KINDS",
]

CROSSOVER_KINDS = ("random", "state-aware", "mixed")

STRATEGY_KINDS = ("ga", "search")


@dataclass(frozen=True)
class GAConfig:
    """Parameters of a single-phase GA run.

    Attributes
    ----------
    population_size:
        Number of individuals per generation.
    generations:
        Maximum generations for the run (one phase, in multi-phase mode).
    crossover_rate:
        Probability that a selected pair undergoes crossover; otherwise the
        parents are copied unchanged into the next generation.
    mutation_rate:
        Per-gene probability of replacing the gene with a fresh uniform
        float (paper, Section 3.4.3).
    crossover:
        One of ``"random"``, ``"state-aware"``, ``"mixed"`` (Section 3.4.2).
    tournament_size:
        Individuals drawn per tournament; the paper uses 2.
    goal_weight / cost_weight:
        Weights of the goal and cost fitness components (equation 4).  Must
        sum to 1.
    max_len:
        MaxLen, the hard cap on genome length.  ``None`` means the domain
        driver must supply it.
    init_length:
        Initial genome length: an int, or an inclusive ``(lo, hi)`` range
        sampled uniformly per individual.
    truncate_at_goal:
        Stop decoding a genome once the goal state is reached, so trailing
        genes cannot undo a solution.  See DESIGN.md §1 for the rationale.
    stop_on_goal:
        End the run as soon as some evaluated individual solves the problem
        (used for single-phase runs; phases of the multi-phase GA run their
        full generation budget by default, matching the paper's generation
        accounting).
    elitism:
        Number of best individuals copied unchanged into the next
        generation.  The paper uses none (0); exposed for ablations.
    """

    population_size: int = 200
    generations: int = 500
    crossover_rate: float = 0.9
    mutation_rate: float = 0.01
    crossover: str = "random"
    tournament_size: int = 2
    goal_weight: float = 0.9
    cost_weight: float = 0.1
    max_len: Optional[int] = None
    init_length: Union[int, Tuple[int, int]] = 32
    truncate_at_goal: bool = True
    stop_on_goal: bool = True
    elitism: int = 0

    def __post_init__(self) -> None:
        """Validate field ranges and cross-field invariants."""
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.crossover not in CROSSOVER_KINDS:
            raise ValueError(
                f"crossover must be one of {CROSSOVER_KINDS}, got {self.crossover!r}"
            )
        if self.tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {self.tournament_size}")
        if abs(self.goal_weight + self.cost_weight - 1.0) > 1e-9:
            raise ValueError(
                f"goal_weight + cost_weight must equal 1, got "
                f"{self.goal_weight} + {self.cost_weight}"
            )
        if min(self.goal_weight, self.cost_weight) < 0:
            raise ValueError("fitness weights must be non-negative")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if isinstance(self.init_length, tuple):
            lo, hi = self.init_length
            if not (1 <= lo <= hi):
                raise ValueError(f"init_length range must satisfy 1 <= lo <= hi, got {self.init_length}")
        elif self.init_length < 1:
            raise ValueError(f"init_length must be >= 1, got {self.init_length}")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValueError(
                f"elitism must be in [0, population_size), got {self.elitism}"
            )
        if self.max_len is not None:
            init_hi = self.init_length[1] if isinstance(self.init_length, tuple) else self.init_length
            if init_hi > self.max_len:
                raise ValueError(
                    f"init_length {self.init_length} exceeds max_len {self.max_len}"
                )

    def replace(self, **changes) -> "GAConfig":
        """A copy of this config with some fields changed."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class MultiPhaseConfig:
    """Parameters of the multi-phase GA (paper, Section 3.5).

    Attributes
    ----------
    max_phases:
        Upper bound on the number of phases (paper: 5).
    phase:
        The per-phase single-run configuration; its ``generations`` field is
        the phase length (paper: 100).
    early_stop_in_phase:
        If True, a phase may end before its generation budget once a valid
        solution is found.  The paper runs full phases; scaled-down benches
        may enable this to save time.
    """

    max_phases: int = 5
    phase: GAConfig = dataclasses.field(default_factory=lambda: GAConfig(generations=100, stop_on_goal=False))
    early_stop_in_phase: bool = False

    def __post_init__(self) -> None:
        """Validate the phase budget."""
        if self.max_phases < 1:
            raise ValueError(f"max_phases must be >= 1, got {self.max_phases}")

    def replace(self, **changes) -> "MultiPhaseConfig":
        """Copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class StrategySpec:
    """One island of a portfolio: a GA configuration or a heuristic search.

    Attributes
    ----------
    kind:
        ``"ga"`` — the island runs a :class:`~repro.core.ga.GARun` with the
        config in ``ga`` (one tick = one generation); or ``"search"`` — the
        island runs a resumable best-first search
        (:mod:`repro.planning.search.resumable`; one tick =
        ``expansions_per_tick`` node expansions).
    name:
        Display label for events and results; defaulted from the kind when
        empty (``"ga:random"``, ``"search:gbfs"``, …).
    ga:
        The GA configuration (required when ``kind == "ga"``).
    algorithm:
        Search algorithm name — one of ``("astar", "wastar", "gbfs",
        "ucs")`` (``kind == "search"`` only).
    weight:
        Heuristic weight for ``"wastar"``.
    heuristic_scale:
        Scale applied to the ``goal_gap`` heuristic.
    expansions_per_tick:
        Node expansions a search island performs per portfolio tick; sets
        how often it yields to the driver's cancellation/migration checks.
    max_expansions:
        Hard expansion budget for a search island.
    """

    kind: str = "ga"
    name: str = ""
    ga: Optional[GAConfig] = None
    algorithm: str = "gbfs"
    weight: float = 2.0
    heuristic_scale: float = 1.0
    expansions_per_tick: int = 256
    max_expansions: int = 1_000_000

    def __post_init__(self) -> None:
        """Validate the strategy shape for its kind."""
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if self.kind == "ga" and self.ga is None:
            raise ValueError("a 'ga' strategy requires a GAConfig in .ga")
        if self.kind == "search":
            # Algorithm names are validated again by make_resumable_search;
            # checking here keeps bad specs from failing mid-run.
            if self.algorithm not in ("astar", "wastar", "gbfs", "ucs"):
                raise ValueError(f"unknown search algorithm {self.algorithm!r}")
            if self.expansions_per_tick < 1:
                raise ValueError("expansions_per_tick must be >= 1")
            if self.max_expansions < 1:
                raise ValueError("max_expansions must be >= 1")
            if self.weight < 1.0:
                raise ValueError(f"weight must be >= 1, got {self.weight}")

    @property
    def label(self) -> str:
        """The display name: ``name`` or a derived ``kind:detail`` slug."""
        if self.name:
            return self.name
        if self.kind == "ga":
            return f"ga:{self.ga.crossover}"
        return f"search:{self.algorithm}"

    def replace(self, **changes) -> "StrategySpec":
        """Copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class PortfolioSpec:
    """Parameters of a heterogeneous island portfolio (DESIGN.md §14).

    Attributes
    ----------
    strategies:
        The islands.  At least one; racing only makes sense with two or
        more.  GA islands migrate among themselves; search islands never
        exchange individuals (they have none) but race on equal terms.
    interval:
        Ticks per round.  The driver joins all islands every ``interval``
        ticks to check for a first solution, steer migration, and stream
        incumbents — it is both the migration interval and the cancellation
        granularity.
    migration_size:
        Base migrants per island per round.  Must be smaller than the
        smallest GA island population (the adaptive controller may raise an
        island's intake above the base, but it is always clamped below the
        destination's population size).
    adaptive:
        Steer migration by per-island improvement velocity: stagnant
        islands pull extra migrants from the current leader on top of the
        ring, improving islands export more.  ``False`` keeps the plain
        ring at the base rate.
    grace_ms:
        After the first island solves, let the *other* islands keep
        improving the incumbent for this many wall-clock milliseconds
        before cancelling them.  ``0`` cancels at the next round boundary
        — the deterministic setting used by ``--portfolio-serial``
        verification.
    max_ticks:
        Overall tick budget per island; ``None`` derives it from the GA
        generation budgets (or the search budgets when no GA island
        exists).
    """

    strategies: Tuple[StrategySpec, ...] = ()
    interval: int = 5
    migration_size: int = 2
    adaptive: bool = True
    grace_ms: float = 0.0
    max_ticks: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate the portfolio shape and the migration bound."""
        if not isinstance(self.strategies, tuple):
            object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.strategies) < 1:
            raise ValueError("a portfolio needs at least one strategy")
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.migration_size < 1:
            raise ValueError("migration_size must be >= 1")
        if self.grace_ms < 0:
            raise ValueError("grace_ms must be >= 0")
        if self.max_ticks is not None and self.max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        pops = [s.ga.population_size for s in self.strategies if s.kind == "ga"]
        if len(pops) >= 2 and self.migration_size >= min(pops):
            raise ValueError(
                "migration_size must be smaller than the smallest GA island "
                f"population ({min(pops)}), got {self.migration_size}"
            )

    @property
    def ga_indices(self) -> Tuple[int, ...]:
        """Indices of the GA strategies, in portfolio order."""
        return tuple(i for i, s in enumerate(self.strategies) if s.kind == "ga")

    def tick_budget(self) -> int:
        """The per-island tick budget implied by ``max_ticks`` or the specs."""
        if self.max_ticks is not None:
            return self.max_ticks
        budgets = [s.ga.generations for s in self.strategies if s.kind == "ga"]
        if not budgets:
            budgets = [
                -(-s.max_expansions // s.expansions_per_tick)
                for s in self.strategies
            ]
        return max(budgets)

    def replace(self, **changes) -> "PortfolioSpec":
        """Copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)
