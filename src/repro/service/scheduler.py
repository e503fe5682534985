"""Run scheduler: admission control, fair-share slicing, warm decoders.

The scheduler multiplexes concurrent :class:`~repro.service.protocol.
PlanRequest`\\ s over a bounded worker pool in *tick-sized slices* — each
slice advances one request's :class:`~repro.core.ga.GARun` by
``slice_gens`` generations, then requeues it — the same cooperative
pattern ``ResumableSearch`` uses inside the portfolio engine.  Admission
control sheds at submit time once ``queue_cap`` requests are in flight
(the 429 analogue); per-tenant fair share is deficit round-robin over
consumed slices, so a tenant flooding the queue cannot starve the others
of more than one slice of latency.

Determinism: a request's per-request trace (generation stats, slices,
incumbents, completion) depends only on its seed and config — never on
scheduling interleaving or cache warmth.  Wall-clock and cache-warmth
payloads are masked by :func:`service_canonical_events`, and the
hypothesis suite in ``tests/service`` asserts serial ``drain()`` and the
threaded :class:`ServicePool` produce byte-identical canonical traces.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.core.config import GAConfig
from repro.core.ga import GARun
from repro.core.parallel import SerialEvaluator
from repro.domains.hanoi import hanoi_max_len
from repro.domains.sliding_tile import tile_init_length, tile_max_len
from repro.obs.events import (
    IncumbentImproved,
    ServiceAdmitted,
    ServiceCompleted,
    ServiceShed,
    ServiceSlice,
    canonical_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemoryRecorder
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.service.cache import EngineCache, config_hash
from repro.service.protocol import PlanRequest

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "SHED",
    "FAILED",
    "ServiceRun",
    "RunScheduler",
    "ServicePool",
    "service_canonical_events",
    "default_max_len",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
SHED = "shed"
FAILED = "failed"

#: Payload keys that reflect cache warmth rather than the search
#: trajectory; masked alongside wall-clock keys for replay comparison.
_CACHE_WARMTH_KEYS = (
    "cache_hits",
    "cache_misses",
    "evals_skipped",
    "genes_reused",
    "hits",
    "misses",
)


def service_canonical_events(events) -> List[dict]:
    """Event dicts with wall-clock *and* cache-warmth payloads masked.

    Extends :func:`repro.obs.events.canonical_events`: shared-engine
    warmth (decode-cache and fitness-memo hit counts) legitimately depends
    on request interleaving while the search trajectory stays bit-identical,
    so warmth counters are zeroed along with wall-clock fields.
    """
    out = canonical_events(events)
    for record in out:
        for key in _CACHE_WARMTH_KEYS:
            if key in record:
                record[key] = 0
    return out


def default_max_len(domain: str, size: int) -> Optional[int]:
    """The service's derived plan-length bound, or ``None`` if unknown.

    Mirrors ``repro solve``: hanoi and tile get the paper-calibrated bounds
    :func:`~repro.domains.hanoi.hanoi_max_len` and
    :func:`~repro.domains.sliding_tile.tile_max_len` from the domain layer,
    so the service never imports the experiment drivers; other domains must
    send an explicit ``max_len``.
    """
    if domain == "hanoi":
        return hanoi_max_len(size)
    if domain == "tile":
        return tile_max_len(size)
    return None


class ServiceRun:
    """One admitted request's lifecycle: state machine + per-request trace.

    States progress ``queued`` → ``running`` → ``done`` / ``shed`` /
    ``failed``.  Every run owns a :class:`MemoryRecorder` capturing only
    its own deterministic events (generation stats, slices, incumbents,
    completion) and a private :class:`MetricsRegistry` merged into the
    service registry at finish — the no-locks rule from
    :mod:`repro.obs.metrics` applied to request concurrency.

    ``subscriber`` (when given) receives every client-facing frame dict
    for this run; the server bridges it onto the owning connection's
    asyncio queue with ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        request: PlanRequest,
        request_id: int,
        arrival_s: float,
        subscriber: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.request = request
        self.request_id = request_id
        self.arrival_s = arrival_s
        self.subscriber = subscriber
        self.state = QUEUED
        self.shed_reason: Optional[str] = None
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.slices = 0
        self.warm: Optional[bool] = None
        self.cancel_requested = False
        self.recorder = MemoryRecorder()
        self.tracer = Tracer([self.recorder])
        self.metrics = MetricsRegistry()
        self.first_slice_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self._ga: Optional[GARun] = None
        self._lease = None
        self._best_key: Optional[tuple] = None

    # -- frames ---------------------------------------------------------------

    def _notify(self, frame: dict) -> None:
        if self.subscriber is not None:
            self.subscriber(frame)

    def canonical_trace(self) -> List[dict]:
        """This run's per-request events, masked for replay comparison."""
        return service_canonical_events(self.recorder.events)

    @property
    def finished(self) -> bool:
        """Whether the run reached a terminal state."""
        return self.state in (DONE, SHED, FAILED)

    def deadline_exceeded(self, now: float) -> bool:
        """Whether *now* is past this request's deadline (``False`` if none)."""
        deadline = self.request.deadline_s
        return deadline is not None and (now - self.arrival_s) > deadline

    def cancel(self) -> None:
        """Ask the scheduler to shed this run at its next pick/slice boundary."""
        self.cancel_requested = True


class RunScheduler:
    """Admission control + deficit-round-robin slicing over service runs.

    Thread-safe; drive it synchronously with :meth:`step`/:meth:`drain`
    (tests, benchmarks, serial replay) or concurrently with a
    :class:`ServicePool`.  ``queue_cap`` bounds queued+running requests —
    the ``queue_cap+1``-th concurrent submit is shed with reason
    ``queue-full``.  Each tenant's consumed-slice deficit picks the next
    run (ties to the earliest request).
    """

    def __init__(
        self,
        engine_cache: Optional[EngineCache] = None,
        queue_cap: int = 8,
        slice_gens: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        if slice_gens < 1:
            raise ValueError(f"slice_gens must be >= 1, got {slice_gens}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine_cache = (
            engine_cache if engine_cache is not None else EngineCache(metrics=self.metrics)
        )
        self.queue_cap = queue_cap
        self.slice_gens = slice_gens
        self.clock = clock
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[ServiceRun]] = {}
        self._consumed: Dict[str, int] = {}
        self._queued = 0
        self._running = 0
        self._next_id = 1

    # -- admission ------------------------------------------------------------

    def submit(
        self, request: PlanRequest, subscriber: Optional[Callable[[dict], None]] = None
    ) -> ServiceRun:
        """Admit or shed *request*; frames go to *subscriber* either way.

        Returns the :class:`ServiceRun` — state ``queued`` (an ``accepted``
        frame was sent) or ``shed``/``failed`` (a ``shed``/``error`` frame
        was sent and the run will never execute).
        """
        now = self.clock()
        with self._work:
            run = ServiceRun(request, self._next_id, now, subscriber)
            self._next_id += 1
            self.metrics.counter("service_requests").add(1)
            depth = self._queued + self._running
            if depth >= self.queue_cap:
                self._shed_locked(run, "queue-full", depth)
                return run
            problem = self._validate(request)
            if problem is not None:
                run.state = FAILED
                run.error = problem
                self.metrics.counter("service_failed").add(1)
                run._notify(
                    {"type": "error", "id": run.request_id, "message": problem}
                )
                return run
            run.state = QUEUED
            self._queues.setdefault(request.tenant, deque()).append(run)
            self._consumed.setdefault(request.tenant, 0)
            self._queued += 1
            depth = self._queued + self._running
            if self.tracer.enabled:
                self.tracer.emit(
                    ServiceAdmitted(
                        request_id=run.request_id,
                        tenant=request.tenant,
                        domain_hash=config_hash(request.domain, (request.size,)),
                        queue_depth=depth,
                    )
                )
            self.metrics.counter("service_admitted").add(1)
            self._work.notify()
        run._notify({"type": "accepted", "id": run.request_id, "queue_depth": depth})
        return run

    def _validate(self, request: PlanRequest) -> Optional[str]:
        """Semantic request check; returns an error message or ``None``."""
        from repro.domains import registry as domain_registry

        if request.domain not in domain_registry.domain_names():
            return f"unknown domain {request.domain!r}"
        if request.max_len is None and default_max_len(request.domain, request.size) is None:
            return f"domain {request.domain!r} needs an explicit 'max_len'"
        if request.mode == "portfolio" and not request.portfolio:
            return "mode='portfolio' needs a 'portfolio' spec string"
        return None

    def _shed_locked(self, run: ServiceRun, reason: str, depth: int) -> None:
        run.state = SHED
        run.shed_reason = reason
        run.finished_s = self.clock()
        self.metrics.counter("service_shed").add(1)
        if self.tracer.enabled:
            self.tracer.emit(
                ServiceShed(
                    request_id=run.request_id,
                    tenant=run.request.tenant,
                    reason=reason,
                    queue_depth=depth,
                )
            )
        run._notify({"type": "shed", "id": run.request_id, "reason": reason})
        self._work.notify_all()

    # -- picking --------------------------------------------------------------

    def _pick_locked(self) -> Optional[ServiceRun]:
        """Pop the next runnable run, shedding stale queued entries inline."""
        while True:
            tenant = self._pick_tenant_locked()
            if tenant is None:
                return None
            run = self._queues[tenant].popleft()
            self._queued -= 1
            now = self.clock()
            if run.cancel_requested:
                self._shed_locked(run, "cancelled", self._queued + self._running)
                continue
            if run.deadline_exceeded(now):
                self._shed_locked(run, "deadline-queued", self._queued + self._running)
                continue
            run.state = RUNNING
            self._running += 1
            return run

    def _pick_tenant_locked(self) -> Optional[str]:
        candidates = [t for t, q in self._queues.items() if q]
        if not candidates:
            return None
        # Deficit round-robin: fewest consumed slices wins; ties go to the
        # tenant whose head request arrived first, keeping picks deterministic.
        return min(
            candidates,
            key=lambda t: (self._consumed[t], self._queues[t][0].request_id),
        )

    # -- slicing --------------------------------------------------------------

    def step(self) -> bool:
        """Run one slice of one request; ``False`` when nothing is runnable."""
        with self._work:
            run = self._pick_locked()
        if run is None:
            return False
        try:
            self._run_slice(run)
        except Exception as exc:  # noqa: BLE001 - failures become error frames
            self._fail(run, f"{type(exc).__name__}: {exc}")
        return True

    def drain(self) -> None:
        """Serially run every queued request to completion (tests, replay)."""
        while self.step():
            pass

    def _build_ga(self, run: ServiceRun) -> None:
        request = run.request
        lease = self.engine_cache.lease(request.domain, (request.size,))
        run._lease = lease
        run.warm = lease.warm
        max_len = request.max_len
        init_length = None
        if max_len is None:
            max_len = default_max_len(request.domain, request.size)
        # Only a run with the same config hash, seed, population and
        # max_len breeds the same genomes, so that is what the memo is
        # retained under; a longer budget replays a shorter one's prefix.
        self.engine_cache.attach_memo(
            lease, (lease.key, request.seed, request.population, max_len)
        )
        if request.domain == "hanoi":
            init_length = lease.domain.optimal_length
        elif request.domain == "tile":
            init_length = tile_init_length(request.size)
        kwargs = dict(max_len=max_len)
        if init_length is not None:
            kwargs["init_length"] = init_length
        config = GAConfig(
            population_size=request.population, generations=request.budget, **kwargs
        )
        # One decoder per domain: the pair's code decoder on a kernel
        # domain (a request's 30-40 rows take its scalar walk), its engine
        # otherwise, behind the trajectory's fitness-only memo.
        evaluator = SerialEvaluator(engine=lease.decoder, memo=lease.memo)
        if request.evaluator == "resilient":
            from repro.core.resilient import ResiliencePolicy, ResilientEvaluator

            evaluator = ResilientEvaluator(policy=ResiliencePolicy())
        run._ga = GARun(
            lease.domain,
            config,
            np.random.default_rng(request.seed),
            evaluator=evaluator,
            tracer=run.tracer,
            metrics=run.metrics,
            scope=f"req-{run.request_id}",
        )

    def _run_slice(self, run: ServiceRun) -> None:
        now = self.clock()
        if run.first_slice_s is None:
            run.first_slice_s = now
            self.metrics.histogram("service_queue_wait").observe(now - run.arrival_s)
            if run._ga is None and run.request.mode == "ga":
                self._build_ga(run)
        if run.request.mode == "portfolio":
            self._run_portfolio(run)
            return
        ga = run._ga
        assert ga is not None
        generations = 0
        done = False
        for _ in range(self.slice_gens):
            if ga.generation >= run.request.budget:
                done = True
                break
            ga.step()
            generations += 1
            if ga.config.stop_on_goal and ga.solved_at is not None:
                done = True
                break
        if ga.generation >= run.request.budget:
            done = True
        run.slices += 1
        slice_index = run.slices - 1
        self.metrics.counter("service_slices").add(1)
        event = ServiceSlice(
            request_id=run.request_id,
            tenant=run.request.tenant,
            slice_index=slice_index,
            generations=generations,
            done=done,
        )
        run.tracer.emit(event)
        if self.tracer.enabled:
            self.tracer.emit(event)
        self._emit_incumbent(run)
        if run.request.stream:
            run._notify({"type": "event", "id": run.request_id, "event": event.to_dict()})
        timed_out = run.deadline_exceeded(self.clock())
        if run.cancel_requested:
            with self._work:
                self._running -= 1
                self._shed_locked(run, "cancelled", self._queued + self._running)
            self._release(run)
            return
        if done or timed_out:
            self._complete(run, timed_out=timed_out and not done)
            return
        with self._work:
            self._running -= 1
            run.state = QUEUED
            self._queues[run.request.tenant].append(run)
            self._queued += 1
            self._consumed[run.request.tenant] += 1
            self._work.notify()

    def _run_portfolio(self, run: ServiceRun) -> None:
        """Portfolio requests race to completion in one (large) slice.

        Racing islands manage their own evaluators, so portfolio runs skip
        the engine cache; anytime incumbents stream as ``incumbent`` frames
        via PR 8's ``on_incumbent`` API.
        """
        from repro.core.planner import GAPlanner
        from repro.core.portfolio import parse_portfolio
        from repro.domains import registry as domain_registry

        request = run.request
        domain = domain_registry.create(request.domain, request.size)
        max_len = request.max_len or default_max_len(request.domain, request.size)
        config = GAConfig(
            population_size=request.population,
            generations=request.budget,
            max_len=max_len,
        )

        def on_incumbent(incumbent) -> None:
            event = IncumbentImproved(
                scope=f"req-{run.request_id}",
                island=incumbent.island,
                strategy=incumbent.strategy,
                tick=incumbent.tick,
                goal_fitness=incumbent.goal_fitness,
                cost_fitness=incumbent.cost_fitness,
                plan_length=len(incumbent.plan),
                solved=incumbent.solved,
            )
            run.tracer.emit(event)
            run._notify(
                {
                    "type": "incumbent",
                    "id": run.request_id,
                    "tick": incumbent.tick,
                    "goal_fitness": incumbent.goal_fitness,
                    "plan_length": len(incumbent.plan),
                    "solved": incumbent.solved,
                }
            )

        outcome = GAPlanner(
            domain,
            config,
            seed=request.seed,
            mode="portfolio",
            portfolio=parse_portfolio(request.portfolio, config),
        ).solve(on_incumbent=on_incumbent)
        run.slices += 1
        self.metrics.counter("service_slices").add(1)
        event = ServiceSlice(
            request_id=run.request_id,
            tenant=request.tenant,
            slice_index=0,
            generations=outcome.generations,
            done=True,
        )
        run.tracer.emit(event)
        if self.tracer.enabled:
            self.tracer.emit(event)
        self._finish(
            run,
            solved=outcome.solved,
            timed_out=False,
            plan=[str(op) for op in outcome.plan],
            goal_fitness=outcome.goal_fitness,
            generations=outcome.generations,
        )

    def _emit_incumbent(self, run: ServiceRun) -> None:
        ga = run._ga
        if ga is None or ga.best is None:
            return
        key = ga.best.sort_key()
        if run._best_key is not None and key <= run._best_key:
            return
        run._best_key = key
        best = ga.best
        plan_length = len(best.decoded.operations)
        event = IncumbentImproved(
            scope=f"req-{run.request_id}",
            island=0,
            strategy="ga",
            tick=ga.generation,
            goal_fitness=best.fitness.goal,
            cost_fitness=best.fitness.cost,
            plan_length=plan_length,
            solved=best.fitness.goal_reached,
        )
        run.tracer.emit(event)
        run._notify(
            {
                "type": "incumbent",
                "id": run.request_id,
                "tick": ga.generation,
                "goal_fitness": best.fitness.goal,
                "plan_length": plan_length,
                "solved": best.fitness.goal_reached,
            }
        )

    # -- completion -----------------------------------------------------------

    def _complete(self, run: ServiceRun, timed_out: bool) -> None:
        ga = run._ga
        assert ga is not None and ga.best is not None
        best = ga.best
        self._finish(
            run,
            solved=best.fitness.goal_reached,
            timed_out=timed_out,
            plan=[str(op) for op in best.decoded.operations],
            goal_fitness=best.fitness.goal,
            generations=ga.generation,
        )

    def _finish(
        self,
        run: ServiceRun,
        solved: bool,
        timed_out: bool,
        plan: List[str],
        goal_fitness: float,
        generations: int,
    ) -> None:
        now = self.clock()
        run.finished_s = now
        seconds = now - run.arrival_s
        event = ServiceCompleted(
            request_id=run.request_id,
            tenant=run.request.tenant,
            solved=solved,
            timed_out=timed_out,
            generations=generations,
            plan_length=len(plan),
            slices=run.slices,
            seconds=seconds,
        )
        run.tracer.emit(event)
        if self.tracer.enabled:
            self.tracer.emit(event)
        run.result = {
            "type": "result",
            "id": run.request_id,
            "solved": solved,
            "timed_out": timed_out,
            "plan": plan,
            "plan_length": len(plan),
            "goal_fitness": goal_fitness,
            "generations": generations,
            "slices": run.slices,
            "warm": bool(run.warm),
            "seconds": seconds,
        }
        self._release(run)
        with self._work:
            self._running -= 1
            run.state = DONE
            self._consumed[run.request.tenant] += 1
            self.metrics.counter("service_completed").add(1)
            self.metrics.histogram("service_latency").observe(seconds)
            self.metrics.merge(run.metrics)
            self._work.notify_all()
        run._notify(run.result)

    def _fail(self, run: ServiceRun, message: str) -> None:
        self._release(run)
        with self._work:
            self._running -= 1
            run.state = FAILED
            run.error = message
            run.finished_s = self.clock()
            self.metrics.counter("service_failed").add(1)
            self._work.notify_all()
        run._notify({"type": "error", "id": run.request_id, "message": message})

    def _release(self, run: ServiceRun) -> None:
        if run._lease is not None:
            ga = run._ga
            if ga is not None:
                ga.evaluator.close()
            self.engine_cache.release(run._lease)
            run._lease = None

    def close(self) -> None:
        """Shed every queued run as ``cancelled`` and release what it holds.

        For shutdown, once nothing steps the scheduler any more (after
        :meth:`ServicePool.stop`): every unfinished run is then queued
        between slices, and one that has started holds a leased pair and
        an evaluator — for a ``resilient`` request a process pool, which
        would otherwise be left to the executor's interpreter-exit hook.
        """
        with self._work:
            runs = [run for queue in self._queues.values() for run in queue]
            for queue in self._queues.values():
                queue.clear()
            self._queued = 0
            for run in runs:
                self._shed_locked(run, "cancelled", self._running)
        for run in runs:
            self._release(run)

    # -- introspection --------------------------------------------------------

    def cancel(self, run: ServiceRun) -> None:
        """Shed *run* at its next pick or slice boundary (client gone)."""
        run.cancel()
        with self._work:
            self._work.notify_all()

    def depth(self) -> int:
        """Queued + running requests right now (the admission signal)."""
        with self._lock:
            return self._queued + self._running

    def wait_for_work(self, timeout: float) -> bool:
        """Block a worker until work may be available (or *timeout*)."""
        with self._work:
            if self._queued:
                return True
            return self._work.wait(timeout)

    def wake_all(self) -> None:
        """Wake every thread parked on the work condition.

        ``submit`` / ``_complete`` already notify for work-driven wakes;
        this is for lifecycle ones — :meth:`ServicePool.stop` calls it so
        workers parked in :meth:`wait_for_work` re-check their stop flag
        immediately instead of sleeping out the idle-wait bound.
        """
        with self._work:
            self._work.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is queued or running; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            while self._queued or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._work.wait(remaining if remaining is not None else 1.0)
            return True

    def stats(self) -> dict:
        """Service counters, derived metrics and cache occupancy as one dict."""
        from repro.obs.metrics import service_summary

        with self._lock:
            queues = {t: len(q) for t, q in self._queues.items() if q}
            running = self._running
        counters = {
            name: c.value
            for name, c in sorted(self.metrics.counters.items())
            if name.startswith("service_")
        }
        return {
            "queues": queues,
            "running": running,
            "counters": counters,
            "derived": service_summary(self.metrics),
            "cache": self.engine_cache.stats(),
        }


class ServicePool:
    """Daemon worker threads cooperatively slicing a :class:`RunScheduler`.

    Workers loop ``step()``; when no run is pickable they park on the
    scheduler's work condition until :meth:`RunScheduler.submit` notifies
    it (bounded by *idle_wait*, a liveness backstop rather than a poll
    interval — a submitted request is picked up at notification time, not
    after sleeping out the bound).  ``stop()`` wakes parked workers
    through :meth:`RunScheduler.wake_all` and joins every worker;
    in-flight slices finish, queued work stays queued (until
    :meth:`RunScheduler.close` sheds it).
    """

    def __init__(
        self,
        scheduler: RunScheduler,
        workers: int = 2,
        idle_wait: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if idle_wait <= 0:
            raise ValueError(f"idle_wait must be > 0, got {idle_wait}")
        self.scheduler = scheduler
        self.workers = workers
        self.idle_wait = idle_wait
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> "ServicePool":
        """Spawn the worker threads (idempotent); returns ``self``."""
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-service-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.scheduler.step():
                self.scheduler.wait_for_work(self.idle_wait)

    def stop(self) -> None:
        """Signal and join every worker (current slices run to completion)."""
        self._stop.set()
        # Parked workers wake on the condition, see the stop flag, and
        # exit — without this, stop() would block up to idle_wait.
        self.scheduler.wake_all()
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    def __enter__(self) -> "ServicePool":
        """Start on entry so ``with ServicePool(...)`` manages the workers."""
        return self.start()

    def __exit__(self, *exc) -> None:
        """Stop and join the workers on exit."""
        self.stop()
