"""Population evaluation strategies: serial and process-parallel.

Fitness evaluation dominates GA runtime (the paper calls it out: "The
fitness evaluation time has a significant impact on the overall execution
time of a GA"), and individuals are independent, so the population is an
embarrassingly parallel workload.  The :class:`ProcessPoolEvaluator`
decomposes it master–slave style across worker processes: each worker
holds its own copy of the (picklable) domain, and each task carries one
chunk of a generation's genomes as a single pickled array and returns the
chunk's fitness columns, plus decoded plans only when the crossover needs
them.

On a single-core box (or for small populations, where dispatch dominates)
use the default :class:`SerialEvaluator`.

Evaluators are observable: :meth:`Evaluator.bind_observability` attaches a
tracer and metrics registry (done automatically by :class:`~repro.core.ga.
GARun`), after which every evaluated batch emits an ``evaluation-batch``
event and feeds the canonical ``evals`` / ``eval_batch`` / ``decode`` /
``dispatch`` / ``worker_eval`` / ``decode_cache_*`` instruments.  Each
decoder has one loop, which always takes its batch timings (a few
``perf_counter`` calls per row) and records them only when instrumented.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.core.decode_engine import DecodeEngine
from repro.core.fitness import FitnessFunction
from repro.core.popbuffer import PopulationBuffer
from repro.core.vector_decode import VectorDecoder
from repro.obs.events import EvaluationBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.protocol import PlanningDomain

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "Evaluator",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "EvaluationContext",
    "FitnessMemo",
    "WorkerPoolError",
    "build_evaluators",
    "Decoder",
    "decoder_for",
]

#: The one decoder a domain decodes on.
Decoder = Union[VectorDecoder, DecodeEngine]


def decoder_for(domain: PlanningDomain) -> Decoder:
    """A fresh decoder for *domain*: the only place that picks one.

    The code decoder when the domain has a kernel (DESIGN.md §12), and
    otherwise a decode engine over transition tables (DESIGN.md §9).
    Both keep the :class:`~repro.core.vector_decode.RowDecoder` contract
    and give bit-identical results.
    """
    kernel = domain.kernel()
    return VectorDecoder(kernel) if kernel is not None else DecodeEngine()


#: Decoder counters reported only once they are non-zero.
_ON_EVENT = ("decode_cache_evictions", "transition_cache_evictions", "decode_fallbacks")


def _add_decoder_counters(metrics: MetricsRegistry, delta: dict) -> None:
    """Add a decoder's counter growth over a batch to *metrics*.

    Every counter keeps its canonical name: the code decoder's rows and
    genes, an engine's table traffic, and both decoders' reused genes.
    An engine's scoring seconds (``fitness_s``) are not a counter; the
    serial evaluator records them on the ``fitness`` timer.
    """
    for name, value in delta.items():
        if name != "fitness_s" and (value or name not in _ON_EVENT):
            metrics.counter(name).add(value)


def build_evaluators(factory, n: int) -> list:
    """Construct *n* evaluators from *factory*, leak-free on failure.

    If the k-th factory call raises, the k-1 evaluators already built are
    closed before the exception propagates — a bare list comprehension
    would leak their worker pools.  Used by the portfolio driver, which
    needs one evaluator per GA island.
    """
    evaluators: list = []
    try:
        for _ in range(n):
            evaluators.append(factory())
    except BaseException:
        for evaluator in evaluators:
            try:
                evaluator.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        raise
    return evaluators


class WorkerPoolError(RuntimeError):
    """The worker pool is unusable: workers died or never came up.

    Raised instead of the opaque ``BrokenProcessPool`` that used to escape
    from deep inside ``pool.map``, with a message naming the domain and the
    likely cause.  Recoverable — :class:`~repro.core.resilient.
    ResilientEvaluator` catches it, rebuilds the pool and retries (or
    degrades to :class:`SerialEvaluator`)."""


class EvaluationContext:
    """Everything needed to evaluate a genome: domain, start state, options."""

    def __init__(
        self,
        domain: PlanningDomain,
        start_state: object,
        fitness: FitnessFunction,
        truncate_at_goal: bool = True,
    ) -> None:
        self.domain = domain
        self.start_state = start_state
        self.fitness = fitness
        self.truncate_at_goal = truncate_at_goal

    def resolve_vector(self) -> bool:
        """Whether the domain has a kernel, so :func:`decoder_for` picks the
        code decoder (DESIGN.md §12); for reports, no evaluator reads it."""
        return self.domain.kernel() is not None

    def decode_genes(self, genes: np.ndarray):
        """Decode one genome (no shared caches): the generation best, a migrant.

        The genome goes through a fresh :func:`decoder_for` decoder, where
        on a kernel domain one row takes the scalar walk.  The plan equals
        the reference decoder's.
        """
        decoder = decoder_for(self.domain)
        decoder.bind(self)
        genes = np.ascontiguousarray(genes, dtype=np.float64)
        lengths = np.array([genes.size], dtype=np.int64)
        return decoder.decode_rows(genes, np.zeros(1, dtype=np.int64), lengths, True)[5][0]


class Evaluator:
    """Strategy interface: evaluate a population buffer's pending rows."""

    # Observability is off by default; class attributes keep subclasses'
    # __init__ free of boilerplate.
    _tracer: Tracer = NULL_TRACER
    _metrics: Optional[MetricsRegistry] = None
    _scope: str = ""

    def evaluate_buffer(self, buffer: PopulationBuffer, context: EvaluationContext) -> None:
        """Fill in the pending rows of *buffer* (plans too when it keeps them).

        The one method an evaluator implements.  A row is written only with
        its final result, so after a failed call the rows still pending are
        exactly the ones left to retry.
        """
        raise NotImplementedError

    def bind_observability(
        self,
        tracer: Tracer,
        metrics: Optional[MetricsRegistry],
        scope: str = "",
    ) -> None:
        """Attach the tracer/metrics this evaluator reports through."""
        self._tracer = tracer
        self._metrics = metrics
        self._scope = scope

    @property
    def instrumented(self) -> bool:
        """Whether a metrics registry or an enabled tracer is attached."""
        return self._metrics is not None or self._tracer.enabled

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Cumulative decode-cache ``(hits, misses)``, or ``None`` if unknown."""
        return None

    def close(self) -> None:  # pragma: no cover - default no-op
        """Release worker processes (a no-op by default)."""

    def __enter__(self) -> "Evaluator":
        """Use the evaluator as a context manager that closes it on exit."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the evaluator."""
        self.close()


class FitnessMemo:
    """Genome bytes to fitness, for one planning-service request trajectory.

    The planning service keeps one memo per request trajectory and hands
    it to that request's :class:`SerialEvaluator`, which looks every
    pending genome up before decoding and sends only the misses to its
    decoder; a repeated request so replays whole populations without
    decoding (DESIGN.md §15).  An entry holds a row's ``(total, goal,
    cost, goal_reached)`` and no plan: a hit writes fitness only, as the
    process pool does under the random crossover.  A hit is exact because
    fitness is a deterministic function of the genome bytes given the
    domain, start state, truncation flag and weights; the last three are
    the memo's signature (:meth:`check` clears the memo when it changes),
    and whoever hands a memo to an evaluator vouches for the domain.  A
    memo holding :attr:`max_entries` genomes is cleared wholesale.
    """

    #: Bound on the entries; a full memo is cleared wholesale.
    max_entries = 100_000

    def __init__(self) -> None:
        self.entries: dict = {}
        self.sig: Optional[tuple] = None
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        """The number of memoised genomes."""
        return len(self.entries)

    def check(self, context: "EvaluationContext") -> None:
        """Clear the memo unless it was scored under *context*'s signature."""
        fit = context.fitness
        sig = (
            context.domain.state_key(context.start_state),
            context.truncate_at_goal,
            fit.goal_weight,
            fit.cost_weight,
        )
        if sig != self.sig:
            self.entries.clear()
            self.sig = sig

    def lookup(self, fingerprint: bytes) -> Optional[tuple]:
        """The memoised ``(total, goal, cost, goal_reached)``, or ``None``."""
        hit = self.entries.get(fingerprint)
        if hit is not None:
            self.hits += 1
        return hit

    def store(self, fingerprint: bytes, fitness: tuple) -> None:
        """Memoise a genome's ``(total, goal, cost, goal_reached)``."""
        entries = self.entries
        if len(entries) >= self.max_entries:
            self.evictions += len(entries)
            entries.clear()
        entries[fingerprint] = fitness


class SerialEvaluator(Evaluator):
    """Evaluate the population in-process.

    One decoder decodes every batch: *engine*, when given — a
    :class:`~repro.core.vector_decode.VectorDecoder` (the code decoder,
    DESIGN.md §12) or a :class:`~repro.core.decode_engine.DecodeEngine`
    (row by row through transition tables, DESIGN.md §9) — and otherwise
    the :func:`decoder_for` decoder of the context's domain, kept while
    the domain stays the same.  The planning service hands its leased
    decoder this way, and a portfolio race shares one decoder across its
    islands.

    With a *memo* (:class:`FitnessMemo`), every pending genome of a
    buffer that keeps no plans is looked up first; hits get their
    fitness and no plan, and the misses go to the decoder as one batch
    and are memoised.  A plan-keeping buffer (the state-matching
    crossovers read parents' plans) never consults the memo.
    """

    def __init__(
        self,
        engine: Optional[Decoder] = None,
        memo: Optional[FitnessMemo] = None,
    ) -> None:
        self._engine = engine
        self._handed = engine is not None
        self.memo = memo
        self._memo_domain: Optional[PlanningDomain] = None

    def _decoder_for(self, context: EvaluationContext):
        """The handed decoder, or the one kept for *context*'s domain."""
        decoder = self._engine
        if not self._handed and (decoder is None or decoder.domain is not context.domain):
            decoder = self._engine = decoder_for(context.domain)
        return decoder

    def vector_counters(self) -> Optional[dict]:
        """Cumulative code-decoder counters, or ``None`` off the code decoder."""
        if isinstance(self._engine, VectorDecoder):
            return self._engine.counters()
        return None

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Decode-engine valid-table ``(hits, misses)``, ``None`` before use."""
        if not isinstance(self._engine, DecodeEngine) or not self._engine.active:
            return None
        return self._engine.cache_info()

    def engine_counters(self) -> Optional[dict]:
        """Cumulative decode-engine counters, or ``None`` before first use."""
        if not isinstance(self._engine, DecodeEngine) or not self._engine.active:
            return None
        return self._engine.counters()

    def evaluate_buffer(self, buffer, context: EvaluationContext) -> None:
        """Array-native serial path: decode rows straight off the arena.

        Memo hits are written first; the remaining pending rows go to the
        decoder as one batch, each resuming from its prefix hint when it
        has one (only plan-keeping buffers and the engine make them).
        """
        rows = np.flatnonzero(~buffer.evaluated)
        if not rows.size:
            return
        decoder = self._decoder_for(context)
        n = int(rows.size)
        memo = None if buffer.keep_plans else self.memo
        before = decoder.counters()
        hits = evictions = 0
        t0 = time.perf_counter()
        if memo is not None:
            if context.domain is not self._memo_domain:
                if self._memo_domain is not None:
                    memo.entries.clear()  # a memo never crosses domains
                self._memo_domain = context.domain
            memo.check(context)
            hits, evictions = memo.hits, memo.evictions
            rows, fingerprints = self._replay(memo, buffer, rows)
        t1 = time.perf_counter()
        decoder.evaluate_pending(buffer, context, rows)
        decode_s = time.perf_counter() - t1
        if memo is not None:
            fitness = zip(
                buffer.total[rows].tolist(),
                buffer.goal[rows].tolist(),
                buffer.cost[rows].tolist(),
                buffer.goal_reached[rows].tolist(),
            )
            for fp, fit in zip(fingerprints, fitness):
                memo.store(fp, fit)
            hits, evictions = memo.hits - hits, memo.evictions - evictions
        seconds = time.perf_counter() - t0
        if self.instrumented:
            after = decoder.counters()
            delta = {k: after[k] - before[k] for k in after}
            self._record_batch(n, int(rows.size), seconds, decode_s, hits, evictions, delta)

    @staticmethod
    def _replay(memo: FitnessMemo, buffer, rows: np.ndarray):
        """Write *rows*' memo hits; return the misses and their fingerprints."""
        hit_rows, hit_fits, miss_rows, fingerprints = [], [], [], []
        for row in rows.tolist():
            fp = buffer.view(row).tobytes()
            hit = memo.lookup(fp)
            if hit is None:
                miss_rows.append(row)
                fingerprints.append(fp)
            else:
                hit_rows.append(row)
                hit_fits.append(hit)
        if hit_rows:
            total, goal, cost, reached = zip(*hit_fits)
            buffer.write_results(hit_rows, total, goal, cost, reached)
        return np.asarray(miss_rows, dtype=np.int64), fingerprints

    def _record_batch(
        self,
        n: int,
        n_decoded: int,
        seconds: float,
        decode_s: float,
        skipped: int,
        evictions: int,
        delta: dict,
    ) -> None:
        """Batch metrics and the ``evaluation-batch`` event.

        *delta* is the decoder's counter growth over the batch; an engine's
        ``fitness_s`` (scoring, part of ``decode_s``) goes to the
        ``fitness`` timer.
        """
        if self._metrics is not None:
            m = self._metrics
            m.counter("evals").add(n)
            m.timer("eval_batch").record(seconds)
            if n_decoded:
                fitness_s = delta.get("fitness_s")
                if fitness_s is None:
                    m.timer("decode").record(decode_s, count=n_decoded)
                else:
                    m.timer("decode").record(decode_s - fitness_s, count=n_decoded)
                    m.timer("fitness").record(fitness_s, count=n_decoded)
            if self.memo is not None:
                m.counter("evals_skipped").add(skipped)
            if evictions:
                m.counter("memo_evictions").add(evictions)
            _add_decoder_counters(m, delta)
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluationBatch(
                    scope=self._scope,
                    n_evaluated=n,
                    seconds=seconds,
                    mode="serial",
                    chunks=1,
                    cache_hits=delta.get("decode_cache_hits", 0),
                    cache_misses=delta.get("decode_cache_misses", 0),
                    evals_skipped=skipped,
                    genes_reused=delta["genes_reused"],
                )
            )


# -- process-pool machinery ---------------------------------------------------
#
# Worker state is installed once per process via the pool initializer, so the
# domain is pickled once, not once per task.  Each worker builds its
# :func:`decoder_for` decoder and keeps it for the life of the process, so an
# engine's tables stay warm across batches; a pool restart rebuilds it through
# the same initializer (cold but correct).  A worker's kernel never crosses
# the process boundary: the domain pickles without it.

_WORKER_CONTEXT: Optional[EvaluationContext] = None
_WORKER_DECODER: Optional[Decoder] = None


def _init_worker(context: EvaluationContext) -> None:
    global _WORKER_CONTEXT, _WORKER_DECODER
    _WORKER_CONTEXT = context
    _WORKER_DECODER = decoder_for(context.domain)


def _evaluate_chunk(genes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, need_plans: bool):
    """Decode one chunk's rows inside a worker.

    Row ``j`` of the chunk is ``genes[starts[j] : starts[j] + lengths[j]]``.
    Prefix hints never reach workers (plans live with the parent; shipping
    them would dwarf the savings), so every row decodes from gene 0.
    Plans are built only when *need_plans* (the buffer keeps plans), the
    rule the serial evaluator follows too.
    Returns ``(seconds, counter-delta, (total, goal, cost, reached),
    plans-or-None)``: the decoder's :meth:`counters` growth over the chunk
    and the fitness columns as arrays in chunk row order.
    """
    assert _WORKER_CONTEXT is not None, "worker not initialised"
    decoder = _WORKER_DECODER
    t0 = time.perf_counter()
    decoder.bind(_WORKER_CONTEXT)
    before = decoder.counters()
    total, goal, cost, reached, _used, plans = decoder.decode_rows(
        genes, starts, lengths, need_plans
    )
    after = decoder.counters()
    seconds = time.perf_counter() - t0
    delta = {k: after[k] - before[k] for k in after}
    return seconds, delta, (total, goal, cost, reached), plans if need_plans else None


def _pack_rows(buffer: PopulationBuffer, rows: np.ndarray) -> tuple:
    """``(genes, starts, lengths)`` of *rows*, packed back to back in order."""
    lengths = buffer.lengths[rows]
    starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    genes = np.concatenate([buffer.view(int(r)) for r in rows])
    return genes, starts, lengths


class ProcessPoolEvaluator(Evaluator):
    """Chunked evaluation across a pool of worker processes.

    The pool's workers are initialised with one :class:`EvaluationContext`
    (the domain and start state ship through the pool initializer).  The
    context can be given up front, or left ``None`` to bind lazily on the
    first evaluation — which is what lets zero-argument evaluator
    factories (``GAPlanner(evaluator="process")``, the multi-phase driver's
    per-phase factories) build pools before the start state is known.
    Evaluating against a *different* context afterwards raises, because
    workers would silently use stale state otherwise; build one evaluator
    per phase/start-state instead.

    ``processes=None`` (the default) uses one worker per CPU.  Each batch is
    cut into ``ceil(pending / (processes * 4))``-row chunks — four waves per
    worker, so small populations stop paying one-genome-per-chunk dispatch
    overhead while load balancing survives uneven chunks.  A chunk's genes
    travel to its worker as one pickled array (DESIGN.md §11).
    """

    def __init__(
        self,
        context: Optional[EvaluationContext] = None,
        processes: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.context = context
        self.timeout_s = timeout_s
        self.processes = processes if processes is not None else max(1, os.cpu_count() or 1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._cache_hits = 0
        self._cache_misses = 0
        if context is not None:
            self._start_pool(context)

    def _start_pool(self, context: EvaluationContext) -> None:
        # Probe picklability up front: an unpicklable domain would otherwise
        # surface later as an opaque BrokenProcessPool from inside pool.map
        # (worker initializers crash before running a single task).  The
        # extra pickle costs one domain serialisation per pool — the same
        # work the initializer ships anyway.
        try:
            pickle.dumps(context)
        except Exception as exc:
            raise WorkerPoolError(
                f"cannot ship the evaluation context to worker processes: domain "
                f"{type(context.domain).__name__} does not pickle ({exc}); use "
                f"SerialEvaluator, or make the domain picklable (no lambdas, open "
                f"files or thread locks in its state)"
            ) from exc
        from concurrent.futures import ProcessPoolExecutor

        self.context = context
        self._pool = ProcessPoolExecutor(
            max_workers=self.processes,
            initializer=_init_worker,
            initargs=(context,),
        )

    def ensure_started(self, context: EvaluationContext) -> None:
        """Bind lazily to *context* and spin the pool up if not yet running."""
        if self.context is None:
            self._start_pool(context)
        elif context is not self.context:
            raise ValueError(
                "ProcessPoolEvaluator is bound to the context it first evaluated "
                "with; create a new evaluator for a new phase/domain"
            )
        elif self._pool is None:
            self._start_pool(self.context)

    def restart(self) -> None:
        """Tear down the (possibly broken or hung) pool and build a fresh one.

        Does not wait for stuck workers: outstanding futures are cancelled
        and dead processes abandoned, which is the only safe move after a
        ``BrokenProcessPool`` or a batch timeout.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self.context is not None:
            self._start_pool(self.context)

    def submit(self, fn: Callable, *args) -> Future:
        """Run *fn(*args)* on one worker — health probes and fault injection.

        A pool whose workers already died raises :class:`WorkerPoolError`,
        like a broken batch does, so the caller's recovery ladder can
        restart it.
        """
        from concurrent.futures.process import BrokenProcessPool

        if self._pool is None:
            raise RuntimeError("pool not started; evaluate once or call ensure_started()")
        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            raise WorkerPoolError(
                "worker pool is broken: a worker process died since the last batch; "
                "call restart() before submitting more work"
            ) from exc

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Aggregated worker-side decode-cache stats (instrumented runs only)."""
        if not (self._cache_hits or self._cache_misses):
            return None
        return self._cache_hits, self._cache_misses

    def evaluate_buffer(self, buffer, context: EvaluationContext) -> None:
        """Evaluate a population buffer's pending rows across the pool.

        The pending rows are cut into chunks, and each chunk's genes are
        packed into one array for its worker, which returns the chunk's
        fitness columns.  Decoded plans cross the boundary only when the
        buffer keeps them (state-matching crossovers); otherwise the
        generation best is decoded lazily by the caller.  Rows are only
        written after every chunk returned, so a failed batch leaves the
        buffer un-evaluated and safe to retry.
        """
        from concurrent.futures.process import BrokenProcessPool

        self.ensure_started(context)
        assert self._pool is not None
        pending = np.flatnonzero(~buffer.evaluated)
        if not pending.size:
            return
        need_plans = buffer.keep_plans
        size = math.ceil(pending.size / (self.processes * 4))
        chunks = [pending[s : s + size] for s in range(0, pending.size, size)]
        t0 = time.perf_counter()
        genes, starts, lengths = zip(*(_pack_rows(buffer, rows) for rows in chunks))
        try:
            # ``timeout_s`` bounds the whole batch: map's iterator raises
            # TimeoutError measured from the map() call, so one hung
            # worker cannot wedge the run.  TimeoutError propagates
            # as-is (the pool object itself is still consistent).
            outputs = list(
                self._pool.map(
                    _evaluate_chunk,
                    genes,
                    starts,
                    lengths,
                    [need_plans] * len(chunks),
                    timeout=self.timeout_s,
                )
            )
        except BrokenProcessPool as exc:
            raise WorkerPoolError(
                f"worker pool broke while evaluating {pending.size} individuals on "
                f"domain {type(context.domain).__name__}: worker process(es) died "
                f"(crash, OOM kill, or an initializer error); call restart() and "
                f"retry, or fall back to SerialEvaluator — ResilientEvaluator "
                f"automates both"
            ) from exc
        seconds = time.perf_counter() - t0
        # No partial writes: the buffer is only mutated after every chunk
        # returned, so a failed batch is safe to retry.
        columns = [np.concatenate(col) for col in zip(*(out[2] for out in outputs))]
        plans = [plan for out in outputs for plan in out[3]] if need_plans else None
        buffer.write_results(np.concatenate(chunks), *columns, plans)
        if self.instrumented:
            self._record_batch_metrics(pending.size, seconds, outputs)

    def _record_batch_metrics(self, n_pending: int, seconds: float, outputs: List[tuple]) -> None:
        """Batch metrics and the ``evaluation-batch`` event."""
        worker_s = sum(out[0] for out in outputs)
        delta: dict = {}
        for out in outputs:
            for name, value in out[1].items():
                delta[name] = delta.get(name, 0) + value
        hits = delta.get("decode_cache_hits", 0)
        misses = delta.get("decode_cache_misses", 0)
        self._cache_hits += hits
        self._cache_misses += misses
        if self._metrics is not None:
            m = self._metrics
            m.counter("evals").add(n_pending)
            m.timer("eval_batch").record(seconds)
            m.timer("dispatch").record(max(0.0, seconds - worker_s / self.processes))
            m.timer("worker_eval").record(worker_s, count=len(outputs))
            _add_decoder_counters(m, delta)
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluationBatch(
                    scope=self._scope,
                    n_evaluated=n_pending,
                    seconds=seconds,
                    mode="process",
                    chunks=len(outputs),
                    cache_hits=hits,
                    cache_misses=misses,
                )
            )

    def close(self) -> None:
        """Shut the worker pool down, waiting for its workers to exit."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
