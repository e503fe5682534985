"""Island portfolio: racing strategies with migration and cancellation.

This is the one island engine (DESIGN.md §14).  Each island is a
:class:`~repro.core.config.StrategySpec` — a GA with its own
crossover/mutation/engine settings, or a pure heuristic search built on
:mod:`repro.planning.search.resumable` — and islands race on the same
problem.  The first island to reach the goal wins and cancels the rest
(optionally after an "improve-for-N-ms" grace window), and the driver
streams an anytime best-so-far incumbent sequence while the race runs.
The classic ring island model is one configuration of it
(:func:`ring_portfolio`): GA-only islands, a fixed ring at the base
migration rate.

Determinism is the design constraint everything else bends around.  The
race is decided in *logical time*, not wall-clock time: islands advance
on the calling thread, in island order, in rounds of ``spec.interval``
ticks (one GA generation or one search slice per tick), each island
consumes only its own SeedSequence-spawned RNG stream, and all
cross-island decisions — winner selection, adaptive migration, incumbent
updates — happen at round boundaries.  The winner is the island with the
smallest ``(first-solution tick, island index)`` pair, so two runs with
the same seed produce the same winner, the same plans, and the same event
log (modulo wall-clock ``seconds`` payloads — see
:func:`canonical_events`).

Each island gets its own evaluator and metrics registry and emits on the
run's tracer.  The islands share the caller's domain and one decoder: the
code decoder over the domain's kernel, or a decode engine whose transition
tables every island then warms.  Per-island metrics merge into the run
registry at the end (:meth:`~repro.obs.metrics.MetricsRegistry.merge`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import rng as rng_mod
from repro.core.config import GAConfig, PortfolioSpec, StrategySpec
from repro.core.fitness import cost_fitness
from repro.core.ga import GARun
from repro.core.parallel import Evaluator, SerialEvaluator, build_evaluators, decoder_for
from repro.core.popbuffer import PopulationBuffer
from repro.core.stats import RunHistory
from repro.obs.events import (
    IncumbentImproved,
    IslandVelocity,
    PortfolioCancelled,
    PortfolioMigration,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer
from repro.planning.search.resumable import ResumableSearch, make_resumable_search
from repro.protocol import PlanningDomain

__all__ = [
    "Incumbent",
    "PortfolioResult",
    "run_portfolio",
    "default_portfolio",
    "ring_portfolio",
    "parse_portfolio",
    "canonical_events",
]

#: Event payload keys holding wall-clock measurements, masked by
#: :func:`canonical_events` when comparing the traces of same-seed runs.
_WALL_CLOCK_KEYS = ("seconds",)


@dataclass(frozen=True)
class Incumbent:
    """One best-so-far improvement in the portfolio race (anytime API).

    ``tick`` is logical time on the discovering island; ``wall_s`` is
    wall-clock seconds since the race started and is the one
    non-deterministic field (excluded from replay comparisons).
    """

    island: int
    strategy: str
    tick: int
    plan: tuple
    goal_fitness: float
    cost_fitness: float
    plan_cost: float
    solved: bool
    wall_s: float

    def sort_key(self) -> tuple:
        """Ranking key: goal fitness, then cost fitness.

        Unlike :meth:`repro.core.ga.BestGenome.sort_key`, which breaks goal
        ties on total fitness, this breaks them on cost fitness alone.
        """
        return (self.goal_fitness, self.cost_fitness)

    def to_dict(self) -> dict:
        """JSON-friendly record (plan rendered via ``str`` per operation)."""
        return {
            "island": self.island,
            "strategy": self.strategy,
            "tick": self.tick,
            "plan_length": len(self.plan),
            "goal_fitness": self.goal_fitness,
            "cost_fitness": self.cost_fitness,
            "plan_cost": self.plan_cost,
            "solved": self.solved,
            "wall_s": self.wall_s,
        }


@dataclass
class PortfolioResult:
    """Outcome of a portfolio race.

    ``histories`` aligns with the spec's strategies (``None`` for search
    islands); ``winner`` is ``None`` when no island claimed a solution —
    none solved within its budget, or the solving GA islands do not stop
    on goal (``solved`` then still reports the best plan).  ``best`` is
    ``None`` only when no island produced any evaluated candidate —
    possible for search-only portfolios.
    """

    best: Optional[Incumbent]
    winner: Optional[int]
    first_solution_tick: Optional[int]
    first_solution_wall_s: Optional[float]
    incumbents: List[Incumbent]
    strategies: Tuple[str, ...]
    histories: List[Optional[RunHistory]]
    ticks_run: List[int]
    rounds: int
    migrations: int
    cancelled: int
    elapsed_seconds: float

    @property
    def solved(self) -> bool:
        """True when the best plan found reaches the goal."""
        return self.best is not None and self.best.solved

    @property
    def plan(self) -> tuple:
        """The best plan found (empty when nothing was evaluated)."""
        return self.best.plan if self.best is not None else ()


class _IslandWorker:
    """Base island: owns its RNG stream and metrics.

    ``run_round`` touches only island-local state, so the race depends on
    nothing but the seed and the island order.
    """

    def __init__(self, index: int, strategy: StrategySpec) -> None:
        self.index = index
        self.strategy = strategy
        self.label = strategy.label
        self.scope = f"island-{index}"
        self.metrics = MetricsRegistry()
        self.ticks = 0
        self.budget = 0
        self.active = True
        self.claim_tick: Optional[int] = None
        self.candidates: List[Incumbent] = []
        self._best_key: Optional[tuple] = None

    def run_round(self, n_ticks: int, t0: float) -> None:
        """Advance up to *n_ticks* ticks (or until solved or out of budget)."""
        raise NotImplementedError

    def best_total(self) -> float:
        """Current best combined fitness (velocity signal; GA islands only)."""
        return -np.inf

    def drain_candidates(self) -> List[Incumbent]:
        """This round's own-best improvements, oldest first."""
        out, self.candidates = self.candidates, []
        return out

    def _offer(self, incumbent: Incumbent) -> None:
        key = incumbent.sort_key()
        if self._best_key is None or key > self._best_key:
            self._best_key = key
            self.candidates.append(incumbent)

    def close(self) -> None:
        """Release per-island resources (evaluators)."""


class _GAIsland(_IslandWorker):
    """A GA strategy island: one tick = one generation.

    Breeding is deferred to the *start* of the next tick so the population
    is always fully evaluated at round boundaries — the same
    evaluate → migrate → breed ordering the classic island model uses.
    """

    def __init__(
        self,
        index: int,
        strategy: StrategySpec,
        domain: PlanningDomain,
        rng: np.random.Generator,
        start_state: Optional[object],
        evaluator: Evaluator,
        tracer: Tracer,
        budget: int,
    ) -> None:
        super().__init__(index, strategy)
        self.run = GARun(
            domain,
            strategy.ga,
            rng,
            start_state=start_state,
            evaluator=evaluator,
            tracer=tracer,
            metrics=self.metrics,
            scope=self.scope,
        )
        self.evaluator = evaluator
        self.budget = min(strategy.ga.generations, budget)
        self._needs_breed = False

    def run_round(self, n_ticks: int, t0: float) -> None:
        for _ in range(n_ticks):
            if self._needs_breed:
                self.run._next_generation()
            self.run._evaluate_and_record()
            self._needs_breed = True
            self.ticks += 1
            best = self.run.best
            if best is not None:
                fit = best.fitness
                self._offer(
                    Incumbent(
                        island=self.index,
                        strategy=self.label,
                        tick=self.ticks,
                        plan=best.decoded.operations,
                        goal_fitness=fit.goal,
                        cost_fitness=fit.cost,
                        plan_cost=float(self.run.domain.plan_cost(best.decoded.operations)),
                        solved=fit.goal_reached,
                        wall_s=time.perf_counter() - t0,
                    )
                )
            if self.run.solved_at is not None and self.strategy.ga.stop_on_goal:
                # A solved island rests: its claim is registered and any
                # further polishing comes from the others' grace rounds.
                # Without stop_on_goal it runs on to its budget unclaimed.
                self.claim_tick = self.ticks
                self.active = False
                return
            if self.ticks >= self.budget:
                self.active = False
                return

    def best_total(self) -> float:
        best = self.run.best
        return best.fitness.total if best is not None else -np.inf

    def close(self) -> None:
        self.evaluator.close()


class _SearchIsland(_IslandWorker):
    """A heuristic-search island: one tick = one bounded expansion slice."""

    def __init__(
        self,
        index: int,
        strategy: StrategySpec,
        domain: PlanningDomain,
        start_state: Optional[object],
        budget: int,
    ) -> None:
        super().__init__(index, strategy)
        self.domain = domain
        self.search: ResumableSearch = make_resumable_search(
            domain,
            strategy.algorithm,
            weight=strategy.weight,
            heuristic_scale=strategy.heuristic_scale,
            start_state=start_state,
            max_expansions=strategy.max_expansions,
        )
        own = -(-strategy.max_expansions // strategy.expansions_per_tick)
        self.budget = min(own, budget)

    def run_round(self, n_ticks: int, t0: float) -> None:
        for _ in range(n_ticks):
            plan = self.search.step(self.strategy.expansions_per_tick)
            self.ticks += 1
            if plan is not None:
                self._offer(
                    Incumbent(
                        island=self.index,
                        strategy=self.label,
                        tick=self.ticks,
                        plan=plan,
                        goal_fitness=1.0,
                        cost_fitness=cost_fitness(self.search.cost),
                        plan_cost=float(self.search.cost),
                        solved=True,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                self.claim_tick = self.ticks
                self.active = False
                return
            if self.search.done or self.ticks >= self.budget:
                self.active = False
                return


class _MigrationController:
    """Velocity-steered migration among the portfolio's GA islands.

    Every round each GA island's improvement velocity (best-total delta
    over the round) feeds the ``island_velocity`` histogram and an
    :class:`IslandVelocity` event.  Islands always trade along the ring of
    *active* GA islands at the base rate; with ``spec.adaptive`` a
    stagnant island's intake grows with its stagnation streak and, from
    two stagnant rounds on, it pulls an extra "boost" edge from the
    current leader — stagnant islands import more, improving islands
    (the leader first among them) export more.  All decisions are pure
    functions of island state, so a same-seed run reproduces them exactly.
    """

    _EPS = 1e-12

    def __init__(self, spec: PortfolioSpec) -> None:
        self.spec = spec
        self._last_best: dict = {}
        self.stagnation: dict = {}

    def observe(self, workers: List[_IslandWorker]) -> dict:
        """Update velocities after a round; returns ``{island: velocity}``."""
        velocities = {}
        for w in workers:
            if not isinstance(w, _GAIsland):
                continue
            now = w.best_total()
            last = self._last_best.get(w.index)
            v = 0.0 if last is None else float(now - last)
            self._last_best[w.index] = now
            velocities[w.index] = v
            if last is not None and v <= self._EPS:
                self.stagnation[w.index] = self.stagnation.get(w.index, 0) + 1
            else:
                self.stagnation[w.index] = 0
        return velocities

    def plan(self, workers: List[_IslandWorker]) -> List[tuple]:
        """Migration edges ``(src, dst, k, reason)`` for this round."""
        ga = [w for w in workers if isinstance(w, _GAIsland) and w.active]
        if len(ga) < 2:
            return []
        base = self.spec.migration_size
        edges = []
        for i, dst in enumerate(ga):
            src = ga[(i - 1) % len(ga)]
            k = base
            if self.spec.adaptive:
                k = base + self.stagnation.get(dst.index, 0)
            edges.append((src, dst, k, "ring"))
        if self.spec.adaptive:
            leader = max(ga, key=lambda w: (w.best_total(), -w.index))
            for dst in ga:
                if dst is leader:
                    continue
                if self.stagnation.get(dst.index, 0) >= 2:
                    edges.append((leader, dst, base, "boost"))
        return edges


def _apply_migration(edges: List[tuple]) -> int:
    """Execute migration edges on evaluated populations; returns migrants moved.

    Emigrants are snapshotted from every source before any import, so the
    order edges are applied in cannot feed an island its own fresh
    immigrants.  Sources rank their rows by a stable argsort on total
    fitness, best first.  Immigrant genomes longer than the destination's
    ``max_len`` are skipped (their fitness would be invalid if truncated);
    intake is clamped to leave the destination at least one native
    survivor.
    """
    exports = {}
    for src, dst, k, _reason in edges:
        if src.index not in exports:
            buf = src.run.buffer
            exports[src.index] = (buf, np.argsort(-buf.total, kind="stable"))
    imports: dict = {}
    for src, dst, k, _reason in edges:
        buf, order = exports[src.index]
        dst_cap = dst.strategy.ga.max_len
        if dst_cap is not None:
            order = order[buf.lengths[order] <= dst_cap]
        imports.setdefault(dst.index, (dst, []))[1].extend(
            buf.take(order[i : i + 1]) for i in range(min(k, order.size))
        )
    moved = 0
    for dst, immigrants in imports.values():
        immigrants = immigrants[: dst.run.buffer.n - 1]  # keep one native survivor
        if not immigrants:
            continue
        dst.run.replace_worst(PopulationBuffer.concatenate(immigrants))
        moved += len(immigrants)
    return moved


def _build_workers(
    spec: PortfolioSpec,
    domain: PlanningDomain,
    rng: np.random.Generator,
    start_state: Optional[object],
    evaluator_factory: Optional[Callable[[], Evaluator]],
    tracer: Tracer,
) -> List[_IslandWorker]:
    """Construct one worker per strategy, leak-free on factory failure.

    Every island decodes the caller's domain, and without an evaluator
    factory the GA islands share one decoder: they take turns on the
    calling thread, and each batch binds the decoder afresh.
    """
    rngs = rng_mod.spawn_many(rng, len(spec.strategies))
    ga_indices = spec.ga_indices
    if evaluator_factory is not None:
        evaluators = build_evaluators(evaluator_factory, len(ga_indices))
    else:
        shared = decoder_for(domain)
        evaluators = [SerialEvaluator(engine=shared) for _ in ga_indices]
    by_island = dict(zip(ga_indices, evaluators))
    budget = spec.tick_budget()
    workers: List[_IslandWorker] = []
    try:
        for i, strategy in enumerate(spec.strategies):
            if strategy.kind == "ga":
                workers.append(
                    _GAIsland(
                        i, strategy, domain, rngs[i], start_state,
                        by_island[i], tracer, budget,
                    )
                )
            else:
                workers.append(
                    _SearchIsland(i, strategy, domain, start_state, budget)
                )
    except BaseException:
        for evaluator in evaluators:
            try:
                evaluator.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        raise
    return workers


def _run_round(workers: List[_IslandWorker], interval: int, t0: float) -> None:
    """Advance every active worker by one round, in island order."""
    for w in workers:
        if not w.active:
            continue
        if w.budget - w.ticks <= 0:
            w.active = False
            continue
        w.run_round(min(interval, w.budget - w.ticks), t0)


def run_portfolio(
    domain: PlanningDomain,
    spec: PortfolioSpec,
    rng: np.random.Generator,
    start_state: Optional[object] = None,
    evaluator_factory: Optional[Callable[[], Evaluator]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    on_incumbent: Optional[Callable[[Incumbent], None]] = None,
) -> PortfolioResult:
    """Race the spec's strategies on *domain*; first solution wins.

    The islands run one after another on the calling thread, round by
    round.  Because all cross-island decisions happen at round boundaries
    in logical time, a same-seed run reproduces the winner, plans,
    migrations and event log exactly (wall-clock payloads aside; see
    :func:`canonical_events`).

    ``on_incumbent`` is invoked at round boundaries, in deterministic
    order, each time the portfolio-wide best-so-far improves.
    """
    t0 = time.perf_counter()
    tracer = tracer if tracer is not None else default_tracer()
    metrics = metrics if metrics is not None else default_metrics()
    # The ambient registry may be absent; driver instruments still record
    # into a throwaway so the code path stays unconditional.
    metrics = metrics if metrics is not None else MetricsRegistry()
    workers = _build_workers(spec, domain, rng, start_state, evaluator_factory, tracer)
    controller = _MigrationController(spec)
    incumbents: List[Incumbent] = []
    best: Optional[Incumbent] = None
    winner: Optional[_IslandWorker] = None
    rounds = 0
    migrations = 0

    def drain() -> None:
        nonlocal best
        for w in workers:
            for cand in w.drain_candidates():
                if best is None or cand.sort_key() > best.sort_key():
                    best = cand
                    incumbents.append(cand)
                    metrics.counter("incumbent_improvements").add()
                    if tracer.enabled:
                        tracer.emit(
                            IncumbentImproved(
                                island=cand.island,
                                strategy=cand.strategy,
                                tick=cand.tick,
                                goal_fitness=cand.goal_fitness,
                                cost_fitness=cand.cost_fitness,
                                plan_length=len(cand.plan),
                                solved=cand.solved,
                            )
                        )
                    if on_incumbent is not None:
                        on_incumbent(cand)

    try:
        while any(w.active for w in workers):
            _run_round(workers, spec.interval, t0)
            rounds += 1
            metrics.counter("portfolio_rounds").add()
            drain()
            claims = [
                (w.claim_tick, w.index, w) for w in workers if w.claim_tick is not None
            ]
            if claims:
                _, _, winner = min(claims, key=lambda c: (c[0], c[1]))
                break
            velocities = controller.observe(workers)
            if tracer.enabled:
                for island, velocity in sorted(velocities.items()):
                    w = workers[island]
                    tracer.emit(
                        IslandVelocity(
                            round_index=rounds,
                            island=island,
                            strategy=w.label,
                            velocity=velocity,
                            best_total=float(w.best_total()),
                            stagnation=controller.stagnation.get(island, 0),
                        )
                    )
            for velocity in velocities.values():
                metrics.histogram("island_velocity").observe(velocity)
            edges = controller.plan(workers)
            if edges:
                moved = _apply_migration(edges)
                migrations += 1
                metrics.counter("portfolio_migrants").add(moved)
                for src, dst, k, reason in edges:
                    if reason == "boost":
                        metrics.counter("portfolio_boost_edges").add()
                    if tracer.enabled:
                        tracer.emit(
                            PortfolioMigration(
                                round_index=rounds,
                                source=src.index,
                                dest=dst.index,
                                migrants=k,
                                reason=reason,
                            )
                        )

        cancelled = 0
        if winner is not None:
            if spec.grace_ms > 0:
                # Grace window: the losers may polish the incumbent for a
                # wall-clock budget.  The winner is already final, so this
                # cannot change the race outcome — only improve `best`.
                deadline = time.perf_counter() + spec.grace_ms / 1000.0
                while (
                    time.perf_counter() < deadline
                    and any(w.active for w in workers)
                ):
                    _run_round(workers, spec.interval, t0)
                    rounds += 1
                    drain()
            for w in workers:
                if w.active:
                    w.active = False
                    cancelled += 1
            metrics.counter("islands_cancelled").add(cancelled)
            if tracer.enabled:
                tracer.emit(
                    PortfolioCancelled(
                        winner=winner.index,
                        strategy=winner.label,
                        tick=winner.claim_tick,
                        cancelled=cancelled,
                    )
                )
    finally:
        for w in workers:
            w.close()
    for w in workers:
        metrics.merge(w.metrics)

    first_wall = next((inc.wall_s for inc in incumbents if inc.solved), None)
    return PortfolioResult(
        best=best,
        winner=winner.index if winner is not None else None,
        first_solution_tick=winner.claim_tick if winner is not None else None,
        first_solution_wall_s=first_wall,
        incumbents=incumbents,
        strategies=tuple(w.label for w in workers),
        histories=[
            w.run.history if isinstance(w, _GAIsland) else None for w in workers
        ],
        ticks_run=[w.ticks for w in workers],
        rounds=rounds,
        migrations=migrations,
        cancelled=cancelled if winner is not None else 0,
        elapsed_seconds=time.perf_counter() - t0,
    )


def default_portfolio(
    base: GAConfig,
    n_ga: int = 2,
    search: Tuple[str, ...] = ("gbfs",),
    **spec_kwargs,
) -> PortfolioSpec:
    """A sensible racing portfolio around one base GA config.

    GA islands cycle through the crossover kinds starting from the base
    config's own; search islands are appended after them.
    """
    kinds = ("random", "state-aware", "mixed")
    start = kinds.index(base.crossover)
    strategies = [
        StrategySpec(kind="ga", ga=base.replace(crossover=kinds[(start + i) % 3]))
        for i in range(n_ga)
    ]
    strategies += [StrategySpec(kind="search", algorithm=a) for a in search]
    return PortfolioSpec(strategies=tuple(strategies), **spec_kwargs)


def ring_portfolio(
    base: GAConfig, n_islands: int, interval: int = 10, migration_size: int = 2
) -> PortfolioSpec:
    """The classic island model as a portfolio: a fixed ring of GA islands.

    *n_islands* copies of *base* trade their *migration_size* best
    individuals for the next island's worst every *interval* generations,
    at the base rate (``adaptive=False``).  Each island rests at its first
    solution only when *base* sets ``stop_on_goal``; otherwise the ring
    runs to the generation budget.  Its islands share one domain and one
    decoder.
    """
    if n_islands < 2:
        raise ValueError(f"a ring needs at least 2 islands, got {n_islands}")
    return PortfolioSpec(
        strategies=(StrategySpec(kind="ga", ga=base),) * n_islands,
        interval=interval,
        migration_size=migration_size,
        adaptive=False,
    )


def parse_portfolio(text: str, base: GAConfig, **spec_kwargs) -> PortfolioSpec:
    """Build a :class:`PortfolioSpec` from a CLI strategy list.

    *text* is comma-separated items: ``ga`` (base config), ``ga:<crossover>``
    (base with that crossover), or ``search:<algorithm>``; e.g.
    ``"ga,ga:state-aware,search:gbfs"``.
    """
    strategies = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, detail = item.partition(":")
        if kind == "ga":
            cfg = base.replace(crossover=detail) if detail else base
            strategies.append(StrategySpec(kind="ga", ga=cfg))
        elif kind == "search":
            strategies.append(
                StrategySpec(kind="search", algorithm=detail or "gbfs")
            )
        else:
            raise ValueError(f"unknown strategy {item!r} (expected ga[...]/search[...])")
    return PortfolioSpec(strategies=tuple(strategies), **spec_kwargs)


def canonical_events(events) -> List[dict]:
    """Event dicts with wall-clock payloads masked, for replay comparison.

    Two runs with the same seed reproduce every deterministic payload of
    each other's event log; fields that measure wall time (``seconds`` on
    evaluation batches) necessarily differ and are zeroed here — the same
    convention the soak determinism suite uses for ``replan-latency``.
    """
    out = []
    for event in events:
        record = event.to_dict()
        for key in _WALL_CLOCK_KEYS:
            if key in record:
                record[key] = 0.0
        out.append(record)
    return out
