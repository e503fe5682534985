"""High-level facade: the GA planner.

Most users want "give me a plan for this domain"; :class:`GAPlanner` wraps
configuration, seeding, run-mode dispatch and result packaging behind one
call.  All four run modes — ``"single"`` (one GA run), ``"multiphase"``
(the paper's Section 3.5 driver), ``"islands"`` (the ring-migration
island model) and ``"portfolio"`` (a race of heterogeneous islands) —
return the same :class:`PlanningOutcome` with identical field semantics,
so callers can switch modes without touching downstream code.  The ring
is a GA-only portfolio (:func:`~repro.core.portfolio.ring_portfolio`).
The lower-level :class:`~repro.core.ga.GARun`,
:func:`~repro.core.multiphase.run_multiphase` and
:func:`~repro.core.portfolio.run_portfolio` remain available for
fine-grained control.

Evaluator lifetimes are explicit: the planner accepts an ``evaluator=``
*specification* (``"serial"``, ``"process"``, or a zero-argument factory),
constructs concrete evaluators itself, and always closes them — process
pools never leak, including on ``stop_on_goal`` early exits and on errors.
"""

from __future__ import annotations

import queue
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.config import GAConfig, MultiPhaseConfig, PortfolioSpec
from repro.core.encoding import encode_operations
from repro.core.ga import GAResult, run_ga
from repro.core.multiphase import MultiPhaseResult, run_multiphase
from repro.core.parallel import Evaluator, ProcessPoolEvaluator
from repro.core.portfolio import (
    Incumbent,
    PortfolioResult,
    default_portfolio,
    ring_portfolio,
    run_portfolio,
)
from repro.core.rng import make_rng
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.protocol import PlanningDomain

__all__ = ["PlanningOutcome", "GAPlanner", "IncumbentStream", "PLANNING_MODES"]

PLANNING_MODES = ("single", "multiphase", "islands", "portfolio")

#: Evaluator specification accepted by :class:`GAPlanner`: a named strategy
#: or a zero-argument factory returning a fresh :class:`Evaluator`.
EvaluatorSpec = Union[None, str, Callable[[], Evaluator]]


@dataclass(frozen=True)
class PlanningOutcome:
    """Uniform result for every planning mode.

    Attributes
    ----------
    plan:
        The best operation sequence found (possibly not a solution).
    solved:
        Whether the plan's final state satisfies the goal.
    goal_fitness:
        Goal fitness of the final state.
    plan_length / plan_cost:
        Size and total cost of the plan.
    generations:
        Total generations evolved — summed over phases in multi-phase mode
        and over islands in island mode, so it is always the total search
        effort in generation units.
    elapsed_seconds:
        Wall clock of the whole run.
    mode:
        Which run mode produced this outcome (``"single"``, ``"multiphase"``,
        ``"islands"`` or ``"portfolio"``).
    detail:
        The underlying :class:`GAResult`, :class:`MultiPhaseResult` or
        :class:`PortfolioResult` (island and portfolio modes).
    incumbents:
        Anytime best-so-far history (island and portfolio modes; empty
        elsewhere).
        Each entry is an :class:`~repro.core.portfolio.Incumbent` recording
        which island improved the portfolio-wide best, at which logical
        tick, and after how much wall-clock time.
    """

    plan: tuple
    solved: bool
    goal_fitness: float
    plan_length: int
    plan_cost: float
    generations: int
    elapsed_seconds: float
    detail: object
    mode: str = "single"
    incumbents: tuple = ()


def _resolve_evaluator_factory(spec: EvaluatorSpec) -> Optional[Callable[[], Evaluator]]:
    """Normalise an evaluator spec to a zero-argument factory (or ``None``).

    ``None``/"serial" → serial evaluation, "process" → one lazily-bound
    :class:`ProcessPoolEvaluator` per run/phase/island, "resilient" → a
    fault-tolerant pool (:class:`~repro.core.resilient.ResilientEvaluator`
    around a fresh pool: crash/timeout retries with backoff, serial
    degradation), callables are used as factories directly.  Evaluator
    *instances* are rejected: a pool is bound to one start state, so
    sharing an instance across phases would silently evaluate against
    stale state — pass a factory instead.
    """
    if spec is None or spec == "serial":
        return None
    if spec == "process":
        return ProcessPoolEvaluator
    if spec == "resilient":
        from repro.core.resilient import ResilientEvaluator

        return ResilientEvaluator
    if isinstance(spec, Evaluator):
        raise TypeError(
            "pass an evaluator factory (e.g. ProcessPoolEvaluator or a lambda), "
            "not an Evaluator instance: instances cannot be re-bound across "
            "phases/islands and their lifetime would be ambiguous"
        )
    if callable(spec):
        return spec
    raise ValueError(
        f"unknown evaluator spec {spec!r}; use 'serial', 'process', 'resilient' or a factory"
    )


class GAPlanner:
    """GA-based planner over any :class:`PlanningDomain`.

    Parameters
    ----------
    domain:
        The planning domain.
    config:
        Single-phase GA parameters (also the per-phase config in multi-phase
        mode and the per-island config in island mode, unless the
        corresponding sub-config overrides it).
    multiphase:
        A :class:`MultiPhaseConfig`, or a phase count for convenience.
        Implies ``mode="multiphase"`` when *mode* is not given.
    islands:
        An island count: a ring of that many GA islands around *config*
        (:func:`~repro.core.portfolio.ring_portfolio`).
        Implies ``mode="islands"`` when *mode* is not given; the mode alone
        builds a ring of 4.
    portfolio:
        A :class:`~repro.core.config.PortfolioSpec`, or a GA-island count
        for convenience (crossover-diverse GA islands around *config* plus
        one greedy-search island).  Implies ``mode="portfolio"`` when
        *mode* is not given.
    mode:
        Explicit run mode: ``"single"``, ``"multiphase"``, ``"islands"`` or
        ``"portfolio"``.  Defaults to whichever of
        *multiphase*/*islands*/*portfolio* was supplied, else ``"single"``.
        Selecting a mode without the matching config builds a default one
        from *config*.
    seed:
        Root seed; every run derives independent streams from it.
    evaluator:
        Evaluator specification: ``None``/``"serial"``, ``"process"``, or a
        zero-argument factory.  The planner owns the lifetime — evaluators
        are context-managed per run (per phase / per island) and always
        closed.
    tracer / metrics:
        Observability wiring passed to the underlying drivers; defaults to
        the ambient pair installed by :func:`repro.obs.observe`.
    """

    def __init__(
        self,
        domain: PlanningDomain,
        config: GAConfig,
        multiphase: Optional[MultiPhaseConfig | int] = None,
        seed: Optional[int] = None,
        *,
        islands: Optional[int] = None,
        portfolio: Optional[PortfolioSpec | int] = None,
        mode: Optional[str] = None,
        evaluator: EvaluatorSpec = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.domain = domain
        self.config = config
        if isinstance(multiphase, int):
            multiphase = MultiPhaseConfig(
                max_phases=multiphase, phase=config.replace(stop_on_goal=False)
            )
        if islands is not None:
            islands = ring_portfolio(config, islands)
        if isinstance(portfolio, int):
            portfolio = default_portfolio(config, n_ga=portfolio)
        given = [c for c in (multiphase, islands, portfolio) if c is not None]
        if len(given) > 1:
            raise ValueError(
                "give at most one of multiphase=, islands= and portfolio="
            )
        if mode is None:
            mode = (
                "multiphase" if multiphase is not None
                else "islands" if islands is not None
                else "portfolio" if portfolio is not None
                else "single"
            )
        if mode not in PLANNING_MODES:
            raise ValueError(f"mode must be one of {PLANNING_MODES}, got {mode!r}")
        if mode == "multiphase" and multiphase is None:
            multiphase = MultiPhaseConfig(phase=config.replace(stop_on_goal=False))
        if mode == "islands" and islands is None:
            islands = ring_portfolio(config, 4)
        if mode == "portfolio" and portfolio is None:
            portfolio = default_portfolio(config)
        if mode != "multiphase":
            multiphase = None
        if mode != "islands":
            islands = None
        if mode != "portfolio":
            portfolio = None
        self.mode = mode
        self.multiphase = multiphase
        self.islands = islands
        self.portfolio = portfolio
        self.rng = make_rng(seed)
        self._evaluator_factory = _resolve_evaluator_factory(evaluator)
        self.tracer = tracer
        self.metrics = metrics

    def seed_individuals(
        self, plans: Sequence[Sequence], jitter: bool = True
    ) -> list:
        """Encode known-good operation sequences as seed genomes (gene arrays)."""
        rng = self.rng if jitter else None
        return [
            encode_operations(self.domain, self.domain.initial_state, ops, rng=rng)
            for ops in plans
        ]

    def solve(
        self,
        start_state: Optional[object] = None,
        seeds: Optional[Sequence[np.ndarray]] = None,
        on_incumbent: Optional[Callable[[Incumbent], None]] = None,
    ) -> PlanningOutcome:
        """Run the configured mode and package the uniform outcome.

        ``on_incumbent`` streams anytime best-so-far improvements and is
        only meaningful in portfolio mode (rejected elsewhere).
        """
        if on_incumbent is not None and self.mode != "portfolio":
            raise ValueError("on_incumbent= requires mode='portfolio'")
        if self.mode == "multiphase":
            return self._solve_multiphase(start_state, seeds)
        if self.mode in ("islands", "portfolio"):
            return self._solve_portfolio(start_state, seeds, on_incumbent)
        return self._solve_single(start_state, seeds)

    def solve_stream(
        self, start_state: Optional[object] = None
    ) -> "IncumbentStream":
        """Solve in portfolio mode, iterating incumbents as they appear.

        Returns an :class:`IncumbentStream`: iterate it for
        :class:`~repro.core.portfolio.Incumbent` records in real time; its
        ``outcome`` property joins the run and returns the final
        :class:`PlanningOutcome`.
        """
        if self.mode != "portfolio":
            raise ValueError("solve_stream requires mode='portfolio'")
        return IncumbentStream(self, start_state)

    # -- per-mode drivers ----------------------------------------------------

    def _solve_single(self, start_state, seeds) -> PlanningOutcome:
        factory = self._evaluator_factory
        with ExitStack() as stack:
            evaluator = stack.enter_context(factory()) if factory is not None else None
            result: GAResult = run_ga(
                self.domain,
                self.config,
                self.rng,
                start_state=start_state,
                evaluator=evaluator,
                seeds=seeds,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        decoded = result.best.decoded
        return PlanningOutcome(
            plan=decoded.operations,
            solved=result.best.fitness.goal_reached,
            goal_fitness=result.best.fitness.goal,
            plan_length=len(decoded.operations),
            plan_cost=decoded.cost,
            generations=result.generations_run,
            elapsed_seconds=result.elapsed_seconds,
            detail=result,
            mode="single",
        )

    def _solve_multiphase(self, start_state, seeds) -> PlanningOutcome:
        if seeds:
            raise ValueError("seeding is only supported in single-phase mode")
        assert self.multiphase is not None
        mp: MultiPhaseResult = run_multiphase(
            self.domain,
            self.multiphase,
            self.rng,
            start_state=start_state,
            evaluator_factory=self._evaluator_factory,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        return PlanningOutcome(
            plan=mp.plan,
            solved=mp.solved,
            goal_fitness=mp.goal_fitness,
            plan_length=mp.plan_length,
            plan_cost=self.domain.plan_cost(mp.plan),
            generations=mp.total_generations,
            elapsed_seconds=mp.elapsed_seconds,
            detail=mp,
            mode="multiphase",
        )

    def _solve_portfolio(self, start_state, seeds, on_incumbent) -> PlanningOutcome:
        if seeds:
            raise ValueError("seeding is only supported in single-phase mode")
        spec = self.islands if self.mode == "islands" else self.portfolio
        assert spec is not None
        result: PortfolioResult = run_portfolio(
            self.domain,
            spec,
            self.rng,
            start_state=start_state,
            evaluator_factory=self._evaluator_factory,
            tracer=self.tracer,
            metrics=self.metrics,
            on_incumbent=on_incumbent,
        )
        best = result.best
        plan = result.plan
        return PlanningOutcome(
            plan=plan,
            solved=result.solved,
            goal_fitness=best.goal_fitness if best is not None else 0.0,
            plan_length=len(plan),
            plan_cost=best.plan_cost if best is not None else 0.0,
            generations=sum(result.ticks_run),
            elapsed_seconds=result.elapsed_seconds,
            detail=result,
            mode=self.mode,
            incumbents=tuple(result.incumbents),
        )


class IncumbentStream:
    """Iterator surface over a running portfolio solve (anytime API).

    Runs ``planner.solve`` on a daemon thread and yields each
    :class:`~repro.core.portfolio.Incumbent` as the driver reports it.
    Iteration ends when the race finishes; ``outcome`` then holds the
    final :class:`PlanningOutcome` (accessing it joins the run first, so
    ``stream.outcome`` alone is a valid blocking wait).  Errors raised by
    the solve re-raise here, on the consuming thread.
    """

    _DONE = object()

    def __init__(self, planner: GAPlanner, start_state) -> None:
        self._queue: "queue.Queue" = queue.Queue()
        self._outcome: Optional[PlanningOutcome] = None
        self._error: Optional[BaseException] = None

        def work() -> None:
            try:
                self._outcome = planner.solve(
                    start_state, on_incumbent=self._queue.put
                )
            except BaseException as exc:  # re-raised on the consumer side
                self._error = exc
            finally:
                self._queue.put(self._DONE)

        self._thread = threading.Thread(
            target=work, name="portfolio-solve", daemon=True
        )
        self._thread.start()

    def __iter__(self):
        """Yield each incumbent as reported; re-raise the solve's error at the end."""
        while True:
            item = self._queue.get()
            if item is self._DONE:
                break
            yield item
        self._thread.join()
        if self._error is not None:
            raise self._error

    @property
    def outcome(self) -> PlanningOutcome:
        """The final outcome; blocks until the race completes."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome
