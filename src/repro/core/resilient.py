"""Fault-tolerant population evaluation: retry, rebuild, degrade.

The paper argues GA planners suit unreliable environments because they are
restartable; this module makes the *evaluation* layer live up to that.
:class:`ResilientEvaluator` wraps an inner :class:`~repro.core.parallel.
ProcessPoolEvaluator` (or any evaluator) with the recovery ladder:

1. **retry** — a batch that fails with :class:`~repro.core.parallel.
   WorkerPoolError` (workers crashed) or ``TimeoutError`` (a worker hung
   past the per-batch timeout) is retried up to ``retry_max`` times, with
   capped exponential backoff and a pool rebuild between attempts;
2. **per-batch serial fallback** — a batch that exhausts its retries is
   evaluated by the serial fallback, which always produces correct results
   (the population is never mutated by a failed parallel attempt, so the
   fallback re-evaluates exactly the pending individuals);
3. **permanent degradation** — after ``degrade_after`` consecutive batches
   fell back, the pool is abandoned for good and every later batch goes
   straight to serial (an ``evaluator-degraded`` event + ``degradations``
   counter mark the transition).

Fault *injection* hooks (``worker_crashes`` / ``worker_hangs``) let the
:mod:`repro.faults` plans kill or wedge real pool workers mid-run, so the
ladder above is exercised by actual ``SIGKILL``-grade failures in tests,
not by mocks alone.

Wall-clock note: backoff sleeps go through ``policy.sleep`` so tests can
pass a no-op; production keeps ``time.sleep``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.core.parallel import (
    EvaluationContext,
    Evaluator,
    ProcessPoolEvaluator,
    SerialEvaluator,
    WorkerPoolError,
)
from repro.obs.events import EvaluatorDegraded, RetryAttempt
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["ResiliencePolicy", "ResilientEvaluator"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the retry/degradation ladder.

    ``retry_max`` counts *retries* per batch (so a batch gets
    ``retry_max + 1`` pool attempts); ``degrade_after`` counts consecutive
    batches that exhausted their retries before the pool is abandoned;
    ``eval_timeout_s`` bounds one whole-batch evaluation (``None`` = wait
    forever).
    """

    retry_max: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    degrade_after: int = 2
    eval_timeout_s: Optional[float] = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.retry_max < 0:
            raise ValueError("retry_max must be non-negative")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.eval_timeout_s is not None and self.eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")

    def backoff_s(self, failure_index: int) -> float:
        """Delay before the retry following the ``failure_index``-th failure."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** failure_index))


def _injected_worker_crash(code: int = 32) -> None:  # pragma: no cover - dies
    """Fault-injection payload: kill the hosting worker process outright."""
    os._exit(code)


def _injected_worker_hang(seconds: float) -> None:
    """Fault-injection payload: wedge the hosting worker for *seconds*."""
    time.sleep(seconds)


class ResilientEvaluator(Evaluator):
    """Policy wrapper that survives worker crashes, hangs and bad domains.

    Parameters
    ----------
    inner:
        The evaluator to protect; defaults to a fresh
        :class:`ProcessPoolEvaluator`.  The wrapper owns its lifetime.
    policy:
        The :class:`ResiliencePolicy`; its ``eval_timeout_s`` is pushed
        onto the inner pool when the pool has no timeout of its own.
    worker_crashes / worker_hangs / hang_seconds:
        Deterministic fault injection (normally sourced from a
        :class:`repro.faults.FaultPlan`): before each of the first
        ``worker_crashes`` batches one pool worker is killed with
        ``os._exit``; before each of the next ``worker_hangs`` batches one
        worker is wedged for ``hang_seconds`` (pair with a small
        ``eval_timeout_s`` to exercise the timeout path).
    """

    def __init__(
        self,
        inner: Optional[Evaluator] = None,
        policy: Optional[ResiliencePolicy] = None,
        *,
        worker_crashes: int = 0,
        worker_hangs: int = 0,
        hang_seconds: float = 30.0,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.inner = inner if inner is not None else ProcessPoolEvaluator()
        if (
            isinstance(self.inner, ProcessPoolEvaluator)
            and self.inner.timeout_s is None
            and self.policy.eval_timeout_s is not None
        ):
            self.inner.timeout_s = self.policy.eval_timeout_s
        self.fallback = SerialEvaluator()
        self._pending_crashes = int(worker_crashes)
        self._pending_hangs = int(worker_hangs)
        self._hang_seconds = hang_seconds
        self._degraded = False
        self._failed_batches = 0  # consecutive batches that needed the fallback

    # -- observability plumbing ---------------------------------------------

    def bind_observability(
        self, tracer: Tracer, metrics: Optional[MetricsRegistry], scope: str = ""
    ) -> None:
        super().bind_observability(tracer, metrics, scope)
        self.inner.bind_observability(tracer, metrics, scope)
        self.fallback.bind_observability(tracer, metrics, scope)

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Combined decode-cache traffic of the pool and the serial fallback.

        Both sides can contribute within one run (per-batch fallbacks before
        degradation), so the totals are summed rather than switched.  Pool
        restarts rebuild worker caches through the pool initializer; the
        inner evaluator's parent-side aggregates (and its fitness memo)
        survive the restart.
        """
        infos = [info for info in (self.inner.cache_info(), self.fallback.cache_info()) if info]
        if not infos:
            return None
        return sum(h for h, _ in infos), sum(m for _, m in infos)

    @property
    def degraded(self) -> bool:
        """True once the pool has been permanently abandoned for serial."""
        return self._degraded

    def close(self) -> None:
        self.inner.close()
        self.fallback.close()

    # -- fault injection -----------------------------------------------------

    def _maybe_inject(self, context: EvaluationContext) -> None:
        if self._pending_crashes <= 0 and self._pending_hangs <= 0:
            return
        pool = self.inner
        if not isinstance(pool, ProcessPoolEvaluator):
            return  # nothing to kill — injection is a no-op on serial inners
        pool.ensure_started(context)
        if self._pending_crashes > 0:
            self._pending_crashes -= 1
            # Wait for the pool to see the death (the crash future then fails
            # with BrokenProcessPool), so the batch meets a broken pool
            # instead of racing the kill on the surviving workers.
            wait([pool.submit(_injected_worker_crash)], timeout=self.policy.eval_timeout_s)
        elif self._pending_hangs > 0:
            self._pending_hangs -= 1
            pool.submit(_injected_worker_hang, self._hang_seconds)

    # -- the recovery ladder -------------------------------------------------

    def evaluate_buffer(self, buffer, context: EvaluationContext) -> None:
        """Run the recovery ladder over one batch.

        Safe because a failed parallel attempt never writes partial results
        into the buffer, so the serial fallback re-evaluates exactly the
        pending rows.
        """
        self._evaluate_with_ladder(
            context,
            lambda: self.inner.evaluate_buffer(buffer, context),
            lambda: self.fallback.evaluate_buffer(buffer, context),
        )

    def _evaluate_with_ladder(
        self,
        context: EvaluationContext,
        attempt_fn: Callable[[], None],
        fallback_fn: Callable[[], None],
    ) -> None:
        if self._degraded:
            fallback_fn()
            return
        policy = self.policy
        for attempt in range(policy.retry_max + 1):
            try:
                self._maybe_inject(context)
                attempt_fn()
                self._failed_batches = 0
                return
            except (WorkerPoolError, TimeoutError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                backoff = policy.backoff_s(attempt)
                if self._metrics is not None:
                    self._metrics.counter("retries").add(1)
                if self._tracer.enabled:
                    self._tracer.emit(
                        RetryAttempt(
                            scope=self._scope,
                            component="evaluator",
                            attempt=attempt + 1,
                            backoff_s=backoff,
                            reason=reason,
                        )
                    )
                if attempt < policy.retry_max:
                    policy.sleep(backoff)
                restart = getattr(self.inner, "restart", None)
                if restart is not None:
                    try:
                        restart()
                    except Exception:
                        # The pool cannot even be rebuilt (e.g. unpicklable
                        # domain) — further attempts are pointless.
                        self._degrade(reason)
                        break
        else:
            self._failed_batches += 1
            if self._failed_batches >= policy.degrade_after:
                self._degrade(f"{self._failed_batches} consecutive batches failed")
        # Retries exhausted (or pool unbuildable): the serial fallback is
        # always correct — a failed parallel attempt never mutates the
        # population, so exactly the pending individuals get re-evaluated.
        fallback_fn()

    def _degrade(self, reason: str) -> None:
        if self._degraded:
            return
        self._degraded = True
        if self._metrics is not None:
            self._metrics.counter("degradations").add(1)
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluatorDegraded(
                    scope=self._scope, failures=max(1, self._failed_batches), reason=reason
                )
            )
        self.inner.close()
