"""Replan controller: churn classification + the degradation ladder.

The controller sits between the soak event loop and the planners.  When a
grid event fires it decides *which* in-flight plans the event invalidates
(:meth:`ReplanController.invalidates`), and for each invalidated request it
produces a replacement plan through a degradation ladder ordered by cost
(:meth:`ReplanController.replan`):

1. **repair** — :func:`repro.planning.reuse.reuse_plan` keeps the longest
   still-valid prefix of the damaged plan's remaining operations and lets
   the greedy planner fill in only the broken suffix;
2. **ga-warm** — a single-phase GA replan whose population is *seeded*
   from the surviving prefix: seed genomes share the prefix genes and
   differ only in a random tail;
3. **greedy** — plain greedy best-first from the observed state;
4. **shed** — give up (the caller drops the request).

The GA rung is gated by the request's wall-clock replan budget: once a
request has burned ``replan_budget_s`` of planning time across its rounds,
the ladder skips straight from repair to greedy.

Every round emits a :class:`~repro.obs.events.ReplanLatency` event and
feeds the ``replan_latency`` histogram; wall-clock latency never touches
the simulated clock, so soak runs stay deterministic in simulated time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GAConfig
from repro.core.encoding import encode_operations
from repro.grid.ontology import Ontology
from repro.grid.simulator import GridEvent
from repro.grid.workflow_domain import GridWorkflowDomain, RunProgram, Transfer
from repro.obs.events import ReplanLatency
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.planning.reuse import reuse_plan, valid_prefix
from repro.soak.arrivals import WorkflowRequest

__all__ = ["ReplanDecision", "ReplanController", "relaxed_feasible"]

#: Ladder rungs counted into per-rung metrics.
_RUNG_COUNTERS = {
    "repair": "soak_repairs",
    "ga-warm": "soak_ga_replans",
    "greedy": "soak_greedy_fallbacks",
}


@dataclass(frozen=True)
class ReplanDecision:
    """Outcome of one ladder descent.

    ``plan`` is ``None`` when every rung failed (the request should be
    shed); ``reused`` counts operations kept from the damaged plan and
    ``repaired`` the newly planned ones; ``seconds`` is wall-clock replan
    latency.
    """

    rung: str
    plan: Optional[Tuple]
    reused: int
    repaired: int
    seconds: float


def relaxed_feasible(domain: GridWorkflowDomain, state) -> bool:
    """Cheap relaxed-reachability check: could the goal possibly be reached?

    The fixpoint of :meth:`GridWorkflowDomain.relaxed_depth` (transfer
    caps, attribute/history constraints and costs ignored) only ever
    *over*-approximates reachability, so ``False`` is a proof the goal is
    unreachable on the current topology — the ladder sheds immediately
    instead of burning a full search/GA budget discovering the same thing
    the slow way.
    """
    return domain.relaxed_depth(state) < math.inf


def _greedy(domain: GridWorkflowDomain, start_state, max_expansions: int = 4_000):
    """Greedy best-first on the goal gap from *start_state* (rungs 1 and 3).

    The expansion budget is deliberately small for an interactive loop: a
    plannable soak request resolves in tens of expansions, so a search
    still running at a few thousand is almost surely unplannable (churn
    took the source or severed the only route) and the latency is better
    spent shedding the request than proving it.
    """
    from repro.planning.search import goal_gap, greedy_best_first

    probe = GridWorkflowDomain(
        ontology=domain.ontology,
        initial_placements=start_state,
        goal=domain.goal,
        max_transfers_per_product=domain.max_transfers_per_product,
    )
    result = greedy_best_first(
        probe, goal_gap(probe, scale=100.0), max_expansions=max_expansions
    )
    return result.plan


class ReplanController:
    """Classifies churn and replans invalidated requests incrementally."""

    def __init__(
        self,
        ontology: Ontology,
        ga_config: Optional[GAConfig] = None,
        replan_budget_s: float = 2.0,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if replan_budget_s <= 0:
            raise ValueError("replan_budget_s must be positive")
        self.ontology = ontology
        self.ga_config = ga_config
        self.replan_budget_s = replan_budget_s
        self.seed = seed
        self.tracer = tracer if tracer is not None else default_tracer()
        self.metrics = metrics if metrics is not None else default_metrics()

    # -- churn classification ------------------------------------------------

    def invalidates(self, event: GridEvent, pending_ops: Sequence[object]) -> bool:
        """Does *event* damage a plan whose unfinished operations are given?

        ``fail`` invalidates plans that still run programs on — or move
        data through — the failed machine; ``partition`` invalidates plans
        with an unfinished transfer across the severed site pair.  Soft
        events (``restore``, ``load``, ``link-degrade``, ``link-restore``)
        change costs, not feasibility, and never force a replan.
        """
        if event.kind == "fail":
            machine = event.machine
            for op in pending_ops:
                if isinstance(op, RunProgram) and op.machine == machine:
                    return True
                if isinstance(op, Transfer) and machine in (op.src, op.dst):
                    return True
            return False
        if event.kind == "partition":
            machines = self.ontology.topology.machines
            severed = frozenset((event.machine, event.peer))
            for op in pending_ops:
                if not isinstance(op, Transfer):
                    continue
                sites = frozenset(
                    (machines[op.src].site, machines[op.dst].site)
                )
                if sites == severed:
                    return True
            return False
        return False

    # -- the degradation ladder ----------------------------------------------

    def replan(
        self,
        domain: GridWorkflowDomain,
        old_suffix: Sequence[object],
        request: WorkflowRequest,
        now: float,
        round_index: int,
        wall_spent_s: float = 0.0,
    ) -> ReplanDecision:
        """Descend the ladder for one invalidated request.

        *domain* is rebuilt from the observed placements over the mutated
        topology (its ``initial_state`` is the observed state);
        *old_suffix* holds the damaged plan's unfinished operations in plan
        order; *wall_spent_s* is the wall-clock planning time this request
        already consumed, which gates the GA rung.
        """
        t0 = time.perf_counter()
        observed = domain.initial_state
        if not relaxed_feasible(domain, observed):
            # Provably unreachable on the current topology: shed now rather
            # than prove it again with search budget.
            decision = ReplanDecision(
                rung="none", plan=None, reused=0, repaired=0,
                seconds=time.perf_counter() - t0,
            )
            return self._report(decision, request, now)

        # Rung 1: prefix repair — keep what churn left intact.
        result = reuse_plan(
            domain,
            tuple(old_suffix),
            lambda d, s: _greedy(d, s),
            start_state=observed,
        )
        if result.solved:
            decision = ReplanDecision(
                rung="repair",
                plan=result.plan,
                reused=result.reused,
                repaired=result.repaired,
                seconds=time.perf_counter() - t0,
            )
            return self._report(decision, request, now)

        # Rung 2: warm-population GA replan, seeded with the surviving
        # prefix.  Skipped once the request's wall-clock replan budget is
        # spent.
        if wall_spent_s + (time.perf_counter() - t0) < self.replan_budget_s:
            seeds = self._warm_seeds(domain, old_suffix, observed, request, round_index)
            plan = self._ga_replan(domain, request, round_index, seeds=seeds)
            if plan is not None:
                prefix = valid_prefix(domain, tuple(old_suffix), observed)
                reused = min(prefix, len(plan))
                decision = ReplanDecision(
                    rung="ga-warm",
                    plan=plan,
                    reused=reused,
                    repaired=len(plan) - reused,
                    seconds=time.perf_counter() - t0,
                )
                return self._report(decision, request, now)

        # Rung 3: greedy fallback from the observed state.
        plan = _greedy(domain, observed)
        if plan is not None:
            decision = ReplanDecision(
                rung="greedy",
                plan=tuple(plan),
                reused=0,
                repaired=len(plan),
                seconds=time.perf_counter() - t0,
            )
            return self._report(decision, request, now)

        # Rung 4: shed.
        decision = ReplanDecision(
            rung="none", plan=None, reused=0, repaired=0,
            seconds=time.perf_counter() - t0,
        )
        return self._report(decision, request, now)

    # -- internals -----------------------------------------------------------

    def _warm_seeds(
        self,
        domain: GridWorkflowDomain,
        old_suffix: Sequence[object],
        observed,
        request: WorkflowRequest,
        round_index: int,
        n_seeds: int = 4,
    ):
        """Seed genomes sharing the surviving prefix.

        Each seed genome is ``prefix genes + random tail``: the GA starts
        from the last intact state's plan and searches only the
        churn-damaged suffix.
        """
        cfg = self._ga_config()
        max_len = cfg.max_len
        # Keep at least one free tail gene below MaxLen for the repair.
        cut = min(valid_prefix(domain, tuple(old_suffix), observed), max_len - 1)
        rng = np.random.default_rng(
            np.random.SeedSequence(request.seed, spawn_key=(2, round_index))
        )
        if cut <= 0:
            return None
        try:
            prefix_genes = encode_operations(
                domain, observed, tuple(old_suffix[:cut]), rng=rng
            )
        except ValueError:  # pragma: no cover - cut came from valid_prefix
            return None
        seeds = []
        for _ in range(n_seeds):
            tail_len = int(rng.integers(1, max(2, max_len - cut + 1)))
            tail = rng.random(tail_len)
            seeds.append(np.concatenate([prefix_genes, tail])[:max_len])
        return seeds

    def _ga_config(self) -> GAConfig:
        if self.ga_config is not None:
            return self.ga_config
        # Small on purpose: a replan GA that cannot solve within a couple of
        # dozen cheap generations should hand over to the greedy rung, not
        # sit on the loop's latency budget.
        return GAConfig(
            population_size=24,
            generations=16,
            max_len=24,
            init_length=(4, 12),
            stop_on_goal=True,
        )

    def _ga_replan(
        self,
        domain: GridWorkflowDomain,
        request: WorkflowRequest,
        round_index: int,
        seeds,
    ) -> Optional[Tuple]:
        from repro.core.planner import GAPlanner

        planner = GAPlanner(
            domain,
            self._ga_config(),
            seed=int(
                np.random.default_rng(
                    np.random.SeedSequence(request.seed, spawn_key=(3, round_index))
                ).integers(0, 1 << 31)
            ),
            tracer=Tracer([]),  # soak traces carry request events, not GA internals
            metrics=self.metrics,
        )
        outcome = planner.solve(seeds=seeds)
        return tuple(outcome.plan) if outcome.solved else None

    def _report(
        self, decision: ReplanDecision, request: WorkflowRequest, now: float
    ) -> ReplanDecision:
        if self.metrics is not None:
            self.metrics.counter("soak_replans").add(1)
            rung_counter = _RUNG_COUNTERS.get(decision.rung)
            if rung_counter:
                self.metrics.counter(rung_counter).add(1)
            self.metrics.histogram("replan_latency").observe(decision.seconds)
        if self.tracer.enabled:
            self.tracer.emit(
                ReplanLatency(
                    scope="soak",
                    request_id=request.request_id,
                    at=now,
                    rung=decision.rung,
                    reused=decision.reused,
                    repaired=decision.repaired,
                    plan_length=len(decision.plan) if decision.plan is not None else 0,
                    seconds=decision.seconds,
                )
            )
        return decision
