"""The multi-phase GA (paper, Section 3.5).

The search is divided into up to ``max_phases`` independent GA runs of a
fixed number of generations each.  Phase 1 starts from the problem's initial
state; each later phase starts from the final state of the previous phase's
best solution, with a freshly randomised population.  The search ends when a
valid solution is found at the end of a phase (or the phase budget runs
out), and the final solution is the concatenation of the per-phase best
plans.

The per-run solution length is therefore bounded by ``max_phases · MaxLen``
— the paper notes this is why multi-phase solutions come out longer than
single-phase ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core import rng as rng_mod
from repro.core.config import MultiPhaseConfig
from repro.core.ga import GAResult, GARun
from repro.core.parallel import Evaluator, SerialEvaluator
from repro.obs.events import PhaseEnd, PhaseStart
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.protocol import PlanningDomain

__all__ = ["PhaseRecord", "MultiPhaseResult", "run_multiphase"]


@dataclass(frozen=True)
class PhaseRecord:
    """What one phase contributed."""

    index: int
    result: GAResult
    start_state: object
    final_state: object
    plan: tuple
    goal_fitness: float
    solved: bool


@dataclass
class MultiPhaseResult:
    """Outcome of a multi-phase run.

    ``plan`` is the concatenation of per-phase best plans; ``goal_fitness``
    and ``solved`` describe the state that concatenated plan ends in.
    """

    phases: List[PhaseRecord]
    plan: tuple
    final_state: object
    goal_fitness: float
    solved: bool
    solved_in_phase: Optional[int]
    total_generations: int
    elapsed_seconds: float

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def plan_length(self) -> int:
        return len(self.plan)


def run_multiphase(
    domain: PlanningDomain,
    config: MultiPhaseConfig,
    rng: np.random.Generator,
    start_state: Optional[object] = None,
    evaluator_factory: Optional[Callable[[], Evaluator]] = None,
    on_phase: Optional[Callable[[PhaseRecord], None]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> MultiPhaseResult:
    """Run the multi-phase GA on *domain*.

    Parameters
    ----------
    evaluator_factory:
        Called once per phase to build an evaluator (process pools are bound
        to a start state, so they cannot be reused across phases).  ``None``
        means serial evaluation through one shared :class:`~repro.core.
        parallel.SerialEvaluator`.  On a domain without a kernel its decode
        engine keeps its transition tables warm across phase boundaries
        (phases share a domain, so state transitions memoised in phase *n*
        pay off in phase *n+1*); on a kernel domain it decodes with the
        vector decoder, whose kernel has no tables to warm.
    tracer / metrics:
        Observability: phase-start/end events bracket each phase's
        generation stream (phase events and the phase's generation events
        share the ``phase-N`` scope).  Defaults to the ambient pair.
    """
    t0 = time.perf_counter()
    tracer = tracer if tracer is not None else default_tracer()
    metrics = metrics if metrics is not None else default_metrics()
    state = start_state if start_state is not None else domain.initial_state
    phase_cfg = config.phase
    if config.early_stop_in_phase and not phase_cfg.stop_on_goal:
        phase_cfg = phase_cfg.replace(stop_on_goal=True)
    elif not config.early_stop_in_phase and phase_cfg.stop_on_goal:
        phase_cfg = phase_cfg.replace(stop_on_goal=False)

    phase_rngs = rng_mod.spawn_many(rng, config.max_phases)
    phases: List[PhaseRecord] = []
    plan: tuple = ()
    solved_in_phase: Optional[int] = None
    total_generations = 0

    # With no factory, one serial evaluator spans every phase: its decoder
    # (a kernel's codes, or engine transitions) is keyed on state identity,
    # so it stays valid across phase boundaries.
    shared = SerialEvaluator() if evaluator_factory is None else None
    try:
        for phase_index in range(1, config.max_phases + 1):
            scope = f"phase-{phase_index}"
            if tracer.enabled:
                tracer.emit(PhaseStart(scope=scope, phase=phase_index))
            evaluator = evaluator_factory() if evaluator_factory is not None else shared
            run = GARun(
                domain,
                phase_cfg,
                phase_rngs[phase_index - 1],
                start_state=state,
                evaluator=evaluator,
                tracer=tracer,
                metrics=metrics,
                scope=scope,
            )
            try:
                result = run.run()
            finally:
                if evaluator_factory is not None and evaluator is not None:
                    evaluator.close()
            total_generations += result.generations_run
            best = result.best
            record = PhaseRecord(
                index=phase_index,
                result=result,
                start_state=state,
                final_state=best.decoded.final_state,
                plan=best.decoded.operations,
                goal_fitness=best.fitness.goal,
                solved=best.fitness.goal_reached,
            )
            phases.append(record)
            if tracer.enabled:
                tracer.emit(
                    PhaseEnd(
                        scope=scope,
                        phase=phase_index,
                        generations=result.generations_run,
                        plan_length=len(record.plan),
                        goal_fitness=record.goal_fitness,
                        solved=record.solved,
                    )
                )
            if on_phase is not None:
                on_phase(record)
            plan = plan + record.plan
            state = record.final_state
            if record.solved:
                solved_in_phase = phase_index
                break
    finally:
        if shared is not None:
            shared.close()

    final_goal = float(domain.goal_fitness(state))
    return MultiPhaseResult(
        phases=phases,
        plan=plan,
        final_state=state,
        goal_fitness=final_goal,
        solved=domain.is_goal(state),
        solved_in_phase=solved_in_phase,
        total_generations=total_generations,
        elapsed_seconds=time.perf_counter() - t0,
    )
