"""Population evaluation strategies: serial and process-parallel.

Fitness evaluation dominates GA runtime (the paper calls it out: "The
fitness evaluation time has a significant impact on the overall execution
time of a GA"), and individuals are independent, so the population is an
embarrassingly parallel workload.  The :class:`ProcessPoolEvaluator`
decomposes it SPMD-style across worker processes — each worker holds its own
copy of the (picklable) domain, reads its row range of a generation from a
shared-memory segment and writes fitness values back in place; only row
ranges, timings and (when the crossover needs them) decoded plans are
pickled.

On a single-core box (or for small populations, where dispatch dominates)
use the default :class:`SerialEvaluator`.

Evaluators are observable: :meth:`Evaluator.bind_observability` attaches a
tracer and metrics registry (done automatically by :class:`~repro.core.ga.
GARun`), after which every evaluated batch emits an ``evaluation-batch``
event and feeds the canonical ``evals`` / ``eval_batch`` / ``decode`` /
``dispatch`` / ``worker_eval`` / ``decode_cache_*`` instruments.  With the
null tracer and no registry the instrumented branches are skipped, keeping
the uninstrumented hot path at its old cost.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decode_engine import DecodeEngine
from repro.core.encoding import decode
from repro.core.fitness import FitnessFunction, FitnessResult
from repro.core.popbuffer import PopulationBuffer
from repro.core.vector_decode import VectorDecoder
from repro.obs.events import EvaluationBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.protocol import PlanningDomain
from repro.core.individual import Individual

__all__ = [
    "Evaluator",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "EvaluationContext",
    "WorkerPoolError",
    "build_evaluators",
]


def build_evaluators(factory, n: int) -> list:
    """Construct *n* evaluators from *factory*, leak-free on failure.

    If the k-th factory call raises, the k-1 evaluators already built are
    closed before the exception propagates — a bare list comprehension
    would leak their worker pools and shared-memory segments.  Used by the
    portfolio driver, which needs one evaluator per GA island.
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
    """Everything needed to evaluate a genome: domain, start state, options.

    ``vector`` selects the whole-population vectorised decode (DESIGN.md
    §12), wired from ``GAConfig.vector_decode``: ``None`` auto-enables it
    when the domain exposes a kernel, ``True`` demands a kernel (raising
    otherwise), ``False`` forces the object decode engine.  The serial
    evaluator and the pool workers consult it for every batch.
    """

    def __init__(
        self,
        domain: PlanningDomain,
        start_state: object,
        fitness: FitnessFunction,
        truncate_at_goal: bool = True,
        vector: Optional[bool] = None,
    ) -> None:
        self.domain = domain
        self.start_state = start_state
        self.fitness = fitness
        self.truncate_at_goal = truncate_at_goal
        self.vector = vector

    def resolve_vector(self) -> bool:
        """Whether evaluation should run the vectorised decode path."""
        if self.vector is False:
            return False
        if self.domain.kernel() is None:
            if self.vector:
                raise ValueError(
                    f"vector_decode=True but domain {self.domain.name!r} has no "
                    f"kernel (domain.kernel() returned None); use "
                    f"vector_decode=None to fall back automatically"
                )
            return False
        return True

    def decode_genes(self, genes: np.ndarray):
        """Decode one genome with the reference decoder (no shared caches)."""
        return decode(
            genes,
            self.domain,
            self.start_state,
            truncate_at_goal=self.truncate_at_goal,
        )


class Evaluator:
    """Strategy interface: evaluate a population buffer's pending rows."""

    # Observability is off by default; class attributes keep subclasses'
    # __init__ free of boilerplate.
    _tracer: Tracer = NULL_TRACER
    _metrics: Optional[MetricsRegistry] = None
    _scope: str = ""

    def evaluate(self, population: Sequence[Individual], context: EvaluationContext) -> None:
        """Evaluate the pending Individuals of *population* in place.

        They are packed into a plan-keeping :class:`~repro.core.popbuffer.
        PopulationBuffer` (Individuals carry their phenotype), evaluated by
        :meth:`evaluate_buffer`, and the results written back only after it
        returned — a failed attempt writes nothing, so the batch is safe to
        retry.  Not an override point: evaluators implement
        :meth:`evaluate_buffer` only.
        """
        pending = [ind for ind in population if not ind.is_evaluated]
        if not pending:
            return
        buffer = PopulationBuffer.from_individuals(pending, keep_plans=True)
        self.evaluate_buffer(buffer, context)
        for i, ind in enumerate(pending):
            ind.decoded, ind.fitness = buffer.plans[i], buffer.fitness_result(i)
            ind.prefix_plan = None
            ind.dirty_from = None

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
        return self._metrics is not None or self._tracer.enabled

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Cumulative decode-cache ``(hits, misses)``, or ``None`` if unknown."""
        return None

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialEvaluator(Evaluator):
    """Evaluate the population in-process.

    When the context resolves the vectorised decode (DESIGN.md §12) the
    pending rows are decoded whole by a :class:`~repro.core.vector_decode.
    VectorDecoder`; otherwise row by row through a persistent
    :class:`~repro.core.decode_engine.DecodeEngine` — transition
    memoisation, dirty-prefix re-decode and fingerprint dedup (DESIGN.md
    §9).  A pre-built engine can be injected to share caches across
    evaluators (a serial portfolio race does this); otherwise one is created
    lazily and kept for the evaluator's lifetime.
    """

    def __init__(self, engine: Optional[DecodeEngine] = None) -> None:
        self._engine = engine
        self._vdec: Optional[VectorDecoder] = None

    def _vector_decoder(self, context: EvaluationContext) -> Optional[VectorDecoder]:
        """The (cached) vector decoder for *context*, or None for the engine."""
        resolve = getattr(context, "resolve_vector", None)
        if resolve is None or not resolve():
            return None
        kernel = context.domain.kernel()
        if self._vdec is None or self._vdec.kernel is not kernel:
            self._vdec = VectorDecoder(kernel)
        return self._vdec

    def _bound_engine(self, context: EvaluationContext) -> DecodeEngine:
        if self._engine is None:
            self._engine = DecodeEngine()
        self._engine.bind(context)
        return self._engine

    def vector_counters(self) -> Optional[dict]:
        """Cumulative vector-decode counters, or ``None`` on the engine path."""
        return self._vdec.counters() if self._vdec is not None else None

    def cache_info(self) -> Optional[Tuple[int, int]]:
        if self._engine is None or not self._engine.active:
            return None
        return self._engine.cache_info()

    def engine_counters(self) -> Optional[dict]:
        """Cumulative decode-engine counters, or ``None`` before first use."""
        if self._engine is None or not self._engine.active:
            return None
        return self._engine.counters()

    def evaluate_buffer(self, buffer, context: EvaluationContext) -> None:
        """Array-native serial path: decode rows straight off the arena.

        When the context resolves the vectorised decode (DESIGN.md §12),
        the whole pending set is decoded in numpy by a
        :class:`~repro.core.vector_decode.VectorDecoder` — bit-identical
        results, no per-genome Python loop at all.  Otherwise each pending
        row runs through the decode engine over a zero-copy genome view,
        resuming from its prefix hint.
        """
        vdec = self._vector_decoder(context)
        if vdec is not None:
            # keep_plans=True regardless of the buffer's flag: in-process
            # there is no shipping cost, and the stored plans feed the next
            # generation's dirty-prefix hints (matching the engine path).
            if not self.instrumented:
                vdec.evaluate_pending(buffer, context, keep_plans=True)
            else:
                self._evaluate_buffer_vector_instrumented(buffer, context, vdec)
            return
        engine = self._bound_engine(context)
        pending = np.flatnonzero(~buffer.evaluated)
        if not self.instrumented:
            fitness_fn = context.fitness
            for i in pending:
                i = int(i)
                prefix, dirty = buffer.prefix_hint(i)
                decoded, fitness = engine.evaluate_genes(
                    buffer.view(i), fitness_fn, prefix, dirty
                )
                buffer.set_result(i, decoded, fitness)
            return
        self._evaluate_engine_instrumented(engine, context, buffer, pending)

    def _evaluate_buffer_vector_instrumented(
        self,
        buffer,
        context: EvaluationContext,
        vdec: VectorDecoder,
    ) -> None:
        """The vector path with batch timing and decoder counters."""
        before = vdec.counters()
        t0 = time.perf_counter()
        n = vdec.evaluate_pending(buffer, context, keep_plans=True)
        seconds = time.perf_counter() - t0
        if not n:
            return
        after = vdec.counters()
        delta = {k: after[k] - before[k] for k in after}
        if self._metrics is not None:
            m = self._metrics
            m.counter("evals").add(n)
            m.timer("eval_batch").record(seconds)
            m.timer("decode").record(seconds, count=n)
            m.counter("vector_rows").add(delta["vector_rows"])
            m.counter("vector_genes").add(delta["vector_genes"])
            m.counter("genes_reused").add(delta["vector_genes_reused"])
            for name in ("vector_prefix_fallbacks", "vector_kernel_resets"):
                if delta[name]:
                    m.counter(name).add(delta[name])
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluationBatch(
                    scope=self._scope,
                    n_evaluated=n,
                    seconds=seconds,
                    mode="serial",
                    chunks=1,
                    genes_reused=delta["vector_genes_reused"],
                )
            )

    def _evaluate_engine_instrumented(
        self,
        engine: DecodeEngine,
        context: EvaluationContext,
        buffer: PopulationBuffer,
        rows: np.ndarray,
    ) -> None:
        """The engine path over *buffer*'s pending *rows*, with
        decode/fitness split timing and counters."""
        if not rows.size:
            return
        before = engine.counters()
        fitness_fn = context.fitness
        decode_s = 0.0
        fitness_s = 0.0
        n_decoded = 0
        t0 = time.perf_counter()
        for row in rows.tolist():
            genes = buffer.view(row)
            fp = genes.tobytes()
            hit = engine.lookup(fp)
            if hit is not None:
                buffer.set_result(row, hit[0], hit[1])
            else:
                prefix, dirty = buffer.prefix_hint(row)
                t1 = time.perf_counter()
                decoded = engine.decode(genes, prefix, dirty)
                t2 = time.perf_counter()
                fitness = fitness_fn(decoded)
                t3 = time.perf_counter()
                engine.store(fp, decoded, fitness)
                buffer.set_result(row, decoded, fitness)
                decode_s += t2 - t1
                fitness_s += t3 - t2
                n_decoded += 1
        seconds = time.perf_counter() - t0
        after = engine.counters()
        delta = {k: after[k] - before[k] for k in after}
        if self._metrics is not None:
            m = self._metrics
            m.counter("evals").add(len(rows))
            m.timer("eval_batch").record(seconds)
            if n_decoded:
                m.timer("decode").record(decode_s, count=n_decoded)
                m.timer("fitness").record(fitness_s, count=n_decoded)
            m.counter("decode_cache_hits").add(delta["decode_cache_hits"])
            m.counter("decode_cache_misses").add(delta["decode_cache_misses"])
            m.counter("transition_cache_hits").add(delta["transition_cache_hits"])
            m.counter("transition_cache_misses").add(delta["transition_cache_misses"])
            m.counter("evals_skipped").add(delta["evals_skipped"])
            m.counter("genes_reused").add(delta["genes_reused"])
            for name in (
                "decode_cache_evictions",
                "transition_cache_evictions",
                "decode_fallbacks",
                "memo_evictions",
            ):
                if delta[name]:
                    m.counter(name).add(delta[name])
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluationBatch(
                    scope=self._scope,
                    n_evaluated=len(rows),
                    seconds=seconds,
                    mode="serial",
                    chunks=1,
                    cache_hits=delta["decode_cache_hits"],
                    cache_misses=delta["decode_cache_misses"],
                    evals_skipped=delta["evals_skipped"],
                    genes_reused=delta["genes_reused"],
                )
            )


# -- process-pool machinery ---------------------------------------------------
#
# Worker state is installed once per process via the pool initializer, so the
# domain is pickled once, not once per task.  Workers keep their decode
# engine and vector decoder for the life of the process, so the transition
# tables stay warm across batches; a pool restart rebuilds them through the
# same initializer (cold but correct).

_WORKER_CONTEXT: Optional[EvaluationContext] = None
_WORKER_ENGINE: Optional[DecodeEngine] = None
_WORKER_VDEC: Optional[VectorDecoder] = None


def _init_worker(context: EvaluationContext) -> None:
    global _WORKER_CONTEXT, _WORKER_ENGINE, _WORKER_VDEC
    _WORKER_CONTEXT = context
    # Transition memoisation only: prefix plans live with the parent
    # (shipping them per task would dwarf the savings), and dedup runs
    # parent-side where the memo sees the whole population.
    _WORKER_ENGINE = DecodeEngine(prefix=False, dedup=False)
    _WORKER_ENGINE.bind(context)
    # Each worker builds its own kernel (tables never cross the process
    # boundary — the domain pickles without them) and keeps it warm for
    # the life of the process, like the engine's transition tables.
    _WORKER_VDEC = VectorDecoder(context.domain.kernel()) if context.resolve_vector() else None


# -- zero-copy shared-memory dispatch (DESIGN.md §11) --------------------------
#
# The parent publishes one generation's pending genomes into a shared-memory
# segment — header, per-row start/length index arrays, the packed gene arena,
# and result arrays the workers fill in place — and ships each worker only a
# (segment name, row range) pair.  Segment layout, all 8-byte aligned:
#
#   int64[4]   header: n_rows, genes_len, need_plans, epoch
#   int64[n]   starts   (row i's genes begin at genes[starts[i]])
#   int64[n]   lengths
#   f64[L]     genes    (L = genes_len)
#   f64[n]     total    ┐
#   f64[n]     goal     │ written by workers, disjoint row ranges
#   f64[n]     cost     │
#   int64[n]   reached  │
#   int64[n]   plan_len ┘
#
# Workers attach by name once and cache the mapping; results cross back as
# in-place array writes, so the only pickled return is the per-chunk timing
# tuple (plus decoded plans when the crossover needs them).

_SHM_HEADER_BYTES = 32

_WORKER_SHM: dict = {}

# Creating or unlinking a segment takes multiprocessing's resource-tracker
# lock.  A worker forked while another thread holds that lock inherits it
# locked, and then blocks forever when its own attach registers with the
# tracker (Python < 3.13).  Threads racing one pool each (the portfolio's
# GA islands) therefore create/unlink segments and submit work — which is
# when the executor forks its workers — only under this one lock.
_TRACKER_LOCK = threading.Lock()


def _shm_layout(buf, n: int, genes_len: int) -> tuple:
    """Numpy views over one segment's regions (shared parent/worker logic)."""
    starts = np.frombuffer(buf, np.int64, n, offset=_SHM_HEADER_BYTES)
    lengths = np.frombuffer(buf, np.int64, n, offset=_SHM_HEADER_BYTES + 8 * n)
    genes = np.frombuffer(buf, np.float64, genes_len, offset=_SHM_HEADER_BYTES + 16 * n)
    base = _SHM_HEADER_BYTES + 16 * n + 8 * genes_len
    total = np.frombuffer(buf, np.float64, n, offset=base)
    goal = np.frombuffer(buf, np.float64, n, offset=base + 8 * n)
    cost = np.frombuffer(buf, np.float64, n, offset=base + 16 * n)
    reached = np.frombuffer(buf, np.int64, n, offset=base + 24 * n)
    plan_len = np.frombuffer(buf, np.int64, n, offset=base + 32 * n)
    return starts, lengths, genes, total, goal, cost, reached, plan_len


def _shm_segment_bytes(n: int, genes_len: int) -> int:
    return _SHM_HEADER_BYTES + 16 * n + 8 * genes_len + 40 * n


def _attach_worker_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to (and cache) the parent's segment inside a worker process.

    The attachment should not register with the resource tracker: the
    parent owns the segment's lifetime.  Python 3.13 has ``track=False``
    for this; on older versions the attach-side registration lands in the
    tracker the worker inherited by fork, where it is a duplicate of the
    parent's own registration (set semantics) and therefore harmless — the
    parent's ``unlink()`` clears it.  Deliberately no ``unregister()``
    workaround: with a fork-shared tracker that would remove the *parent's*
    registration and make the later unlink complain.
    """
    shm = _WORKER_SHM.get(name)
    if shm is None:
        # A new name means the parent recreated the segment (capacity growth
        # or restart); stale attachments can be dropped.
        for old_name in list(_WORKER_SHM):
            _WORKER_SHM.pop(old_name).close()
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - Python < 3.13
            shm = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = shm
    return shm


def _evaluate_shm_chunk(name: str, start: int, stop: int):
    """Evaluate rows ``[start, stop)`` of the published generation in place.

    Results go straight into the segment's packed arrays; the return value
    carries only ``(seconds, cache-stats, plans-or-None)``.
    """
    assert _WORKER_CONTEXT is not None, "worker not initialised"
    context = _WORKER_CONTEXT
    shm = _attach_worker_shm(name)
    header = np.frombuffer(shm.buf, np.int64, 4)
    n, genes_len, need_plans = int(header[0]), int(header[1]), bool(header[2])
    starts, lengths, genes, total, goal, cost, reached, plan_len = _shm_layout(
        shm.buf, n, genes_len
    )
    engine = _WORKER_ENGINE
    fitness_fn = context.fitness
    plans: Optional[list] = [] if need_plans else None
    t0 = time.perf_counter()
    vdec = _WORKER_VDEC
    if vdec is not None:
        # Vectorised decode of this worker's whole row range in one shot.
        # Prefix hints never reach workers (plans live with the parent), so
        # every row decodes from gene 0; plan objects are built only when
        # the crossover needs them shipped back.
        vdec.bind(context)
        v_total, v_goal, v_costf, v_reached, v_used, v_plans = vdec.decode_rows(
            genes, starts[start:stop], lengths[start:stop], need_plans, None
        )
        sl = slice(start, stop)
        total[sl] = v_total
        goal[sl] = v_goal
        cost[sl] = v_costf
        reached[sl] = v_reached
        plan_len[sl] = v_used  # every consumed gene is one operation
        if plans is not None:
            plans.extend(v_plans)
        seconds = time.perf_counter() - t0
        return seconds, (0, 0, 0, 0), plans
    c0 = engine.counters()
    for j in range(start, stop):
        g = genes[starts[j] : starts[j] + lengths[j]]
        decoded = engine.decode(g)
        fit = fitness_fn(decoded)
        total[j] = fit.total
        goal[j] = fit.goal
        cost[j] = fit.cost
        reached[j] = 1 if fit.goal_reached else 0
        plan_len[j] = len(decoded.operations)
        if plans is not None:
            plans.append(decoded)
    seconds = time.perf_counter() - t0
    c1 = engine.counters()
    stats = (
        c1["decode_cache_hits"] - c0["decode_cache_hits"],
        c1["decode_cache_misses"] - c0["decode_cache_misses"],
        c1["transition_cache_hits"] - c0["transition_cache_hits"],
        c1["transition_cache_misses"] - c0["transition_cache_misses"],
    )
    return seconds, stats, plans


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

    ``processes=None`` (the default) uses one worker per CPU.
    ``chunk_size=None`` (the default) derives the chunk size per batch as
    ``ceil(pending / (processes * 4))`` — four waves per worker, so small
    populations stop paying one-genome-per-chunk dispatch overhead while
    load balancing survives uneven chunks; pass an int to pin it.  Every
    batch publishes its genomes through one shared-memory segment and
    workers receive only row ranges (DESIGN.md §11).
    """

    def __init__(
        self,
        context: Optional[EvaluationContext] = None,
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.context = context
        self.chunk_size = chunk_size
        self.timeout_s = timeout_s
        self.processes = processes if processes is not None else max(1, os.cpu_count() or 1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._zombie_segments: List[shared_memory.SharedMemory] = []
        self._epoch = 0
        self._cache_hits = 0
        self._cache_misses = 0
        # Parent-side fingerprint memo (layer 3): duplicates within and
        # across batches are never dispatched.  The pool is bound to one
        # context for its whole life, so the memo never goes stale — it
        # deliberately survives restart(), when the workers' transition
        # tables are rebuilt cold.
        self._memo: dict = {}
        self._memo_max = 100_000
        self._evals_skipped = 0
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
        # The old segment may hold garbage from the failed batch (and dead
        # workers' attachments die with them); publish into a fresh one.
        self._release_segment()
        if self.context is not None:
            self._start_pool(self.context)

    def _effective_chunk_size(self, count: int) -> int:
        """Explicit ``chunk_size`` if given, else auto-size to 4 waves/worker."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(count / (self.processes * 4)))

    def _ensure_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """The publish target, recreated (fresh name) when capacity is short."""
        if self._segment is not None and self._segment.size >= nbytes:
            return self._segment
        self._release_segment()
        # Over-allocate so genome-length drift doesn't recreate every
        # generation; names are kernel-generated, so never reused.
        with _TRACKER_LOCK:
            self._segment = shared_memory.SharedMemory(
                create=True, size=max(64, nbytes + nbytes // 4)
            )
        return self._segment

    def _release_segment(self) -> None:
        # Zombies are already-unlinked segments whose mapping was pinned by
        # numpy views at release time (a failed batch's traceback keeps the
        # evaluate_buffer frame alive); retry closing them now that the
        # pinning frames have likely died.
        for zombie in self._zombie_segments[:]:
            try:
                zombie.close()
                self._zombie_segments.remove(zombie)
            except BufferError:  # pragma: no cover - still pinned
                pass
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        try:
            with _TRACKER_LOCK:
                segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views pinned by a traceback
            # Unlinked already (no /dev/shm leak), so just park it; closing
            # here would also fail again in __del__ as an unraisable error.
            self._zombie_segments.append(segment)

    def submit(self, fn: Callable, *args) -> Future:
        """Run *fn(*args)* on one worker — health probes and fault injection.

        A pool whose workers already died raises :class:`WorkerPoolError`,
        like a broken batch does, so the caller's recovery ladder can
        restart it.
        """
        if self._pool is None:
            raise RuntimeError("pool not started; evaluate once or call ensure_started()")
        try:
            with _TRACKER_LOCK:
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

        Pending rows are deduplicated against the parent-side memo; the
        survivors are published into the shared-memory segment, workers
        receive only row ranges and write packed fitness arrays in place.
        Decoded plans cross the boundary only when the buffer keeps them
        (state-matching crossovers); otherwise the generation best is
        decoded lazily by the caller.  Rows are only written after every
        chunk returned, so a failed batch leaves the buffer un-evaluated and
        safe to retry.
        """
        self.ensure_started(context)
        assert self._pool is not None
        pending = [int(i) for i in np.flatnonzero(~buffer.evaluated)]
        if not pending:
            return
        need_plans = buffer.keep_plans
        # Dedup the batch before dispatch: each distinct genome crosses the
        # process boundary (and is decoded) exactly once; memo hits from
        # earlier batches are not dispatched at all.
        fingerprints: List[bytes] = []
        resolved: dict = {}
        dispatch_fps: List[bytes] = []
        dispatch_rows: List[int] = []
        for row in pending:
            fp = buffer.view(row).tobytes()
            fingerprints.append(fp)
            hit = self._memo.get(fp)
            if hit is not None and hit[0] is None and need_plans:
                hit = None  # packed result can't feed a plan-keeping buffer
            if hit is not None:
                resolved[fp] = hit
            elif fp not in resolved:
                resolved[fp] = None  # claimed; filled after dispatch
                dispatch_fps.append(fp)
                dispatch_rows.append(row)
        skipped = len(pending) - len(dispatch_rows)
        size = self._effective_chunk_size(len(dispatch_rows))
        starts = list(range(0, len(dispatch_rows), size))
        published = 0
        outputs: list = []
        results: List[tuple] = []
        t0 = time.perf_counter()
        try:
            if dispatch_rows:
                name, published, result_views = self._publish(
                    buffer, dispatch_rows, need_plans
                )
                # ``timeout_s`` bounds the whole batch: map's iterator raises
                # TimeoutError measured from the map() call, so one hung
                # worker cannot wedge the run.  TimeoutError propagates
                # as-is (the pool object itself is still consistent).
                with _TRACKER_LOCK:  # map submits (and forks) eagerly
                    chunks = self._pool.map(
                        _evaluate_shm_chunk,
                        [name] * len(starts),
                        starts,
                        [min(s + size, len(dispatch_rows)) for s in starts],
                        timeout=self.timeout_s,
                    )
                outputs = list(chunks)
                results = self._collect_shm_results(
                    dispatch_rows, result_views, outputs, need_plans
                )
        except BrokenProcessPool as exc:
            raise WorkerPoolError(
                f"worker pool broke while evaluating {len(pending)} individuals on "
                f"domain {type(context.domain).__name__}: worker process(es) died "
                f"(crash, OOM kill, or an initializer error); call restart() and "
                f"retry, or fall back to SerialEvaluator — ResilientEvaluator "
                f"automates both"
            ) from exc
        finally:
            # Drop our views into the segment before the exception (whose
            # traceback pins this frame) propagates — otherwise restart()
            # cannot unmap the segment and close() degrades to a zombie.
            result_views = None  # noqa: F841
        seconds = time.perf_counter() - t0
        # No partial writes: the buffer is only mutated after every chunk
        # returned, so a failed batch is safe to retry.
        if len(self._memo) >= self._memo_max:
            self._memo.clear()
        for fp, result in zip(dispatch_fps, results):
            resolved[fp] = result
            self._memo[fp] = result
        self._evals_skipped += skipped
        for row, fp in zip(pending, fingerprints):
            decoded, fitness = resolved[fp]
            buffer.set_result(row, decoded, fitness)
        if self.instrumented:
            self._record_batch_metrics(
                n_pending=len(pending),
                seconds=seconds,
                outputs=outputs,
                n_chunks=len(starts),
                skipped=skipped,
                published=published,
            )

    def _publish(self, buffer, rows: List[int], need_plans: bool):
        """Write the pending rows into the segment; returns name, bytes, views."""
        n = len(rows)
        lengths = np.fromiter((int(buffer.lengths[r]) for r in rows), np.int64, n)
        starts = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(lengths[:-1], out=starts[1:])
        genes_len = int(lengths.sum())
        segment = self._ensure_segment(_shm_segment_bytes(n, genes_len))
        self._epoch += 1
        header = np.frombuffer(segment.buf, np.int64, 4)
        header[:] = (n, genes_len, 1 if need_plans else 0, self._epoch)
        views = _shm_layout(segment.buf, n, genes_len)
        shm_starts, shm_lengths, shm_genes = views[0], views[1], views[2]
        shm_starts[:] = starts
        shm_lengths[:] = lengths
        for s, length, r in zip(starts, lengths, rows):
            shm_genes[s : s + length] = buffer.view(r)
        published = _SHM_HEADER_BYTES + 16 * n + 8 * genes_len
        return segment.name, published, views[3:]

    @staticmethod
    def _collect_shm_results(
        rows: List[int], result_views, outputs, need_plans: bool
    ) -> List[tuple]:
        """Rebuild ``(plan, FitnessResult)`` pairs from the packed arrays."""
        total, goal, cost, reached, _plan_len = result_views
        if need_plans:
            plans: List[object] = []
            for _, _, chunk_plans in outputs:
                plans.extend(chunk_plans)
        results = []
        for j in range(len(rows)):
            fitness = FitnessResult(
                goal=float(goal[j]),
                cost=float(cost[j]),
                total=float(total[j]),
                goal_reached=bool(reached[j]),
            )
            results.append((plans[j] if need_plans else None, fitness))
        return results

    def _record_batch_metrics(
        self,
        n_pending: int,
        seconds: float,
        outputs: List[tuple],
        n_chunks: int,
        skipped: int,
        published: int,
    ) -> None:
        """Batch metrics and the ``evaluation-batch`` event."""
        worker_s = sum(s for s, _, _ in outputs)
        hits = sum(st[0] for _, st, _ in outputs)
        misses = sum(st[1] for _, st, _ in outputs)
        trans_hits = sum(st[2] for _, st, _ in outputs)
        trans_misses = sum(st[3] for _, st, _ in outputs)
        self._cache_hits += hits
        self._cache_misses += misses
        if self._metrics is not None:
            m = self._metrics
            m.counter("evals").add(n_pending)
            m.timer("eval_batch").record(seconds)
            m.timer("dispatch").record(max(0.0, seconds - worker_s / self.processes))
            if n_chunks:
                m.timer("worker_eval").record(worker_s, count=n_chunks)
            m.counter("decode_cache_hits").add(hits)
            m.counter("decode_cache_misses").add(misses)
            m.counter("transition_cache_hits").add(trans_hits)
            m.counter("transition_cache_misses").add(trans_misses)
            m.counter("evals_skipped").add(skipped)
            if published:
                m.counter("shm_bytes_published").add(published)
                # Lower bound: the gene payload alone no longer crosses the
                # pipe (index arrays and pickle framing are gravy on top).
                genes_bytes = published - _SHM_HEADER_BYTES
                m.counter("dispatch_bytes_saved").add(max(0, genes_bytes))
        if self._tracer.enabled:
            self._tracer.emit(
                EvaluationBatch(
                    scope=self._scope,
                    n_evaluated=n_pending,
                    seconds=seconds,
                    mode="process",
                    chunks=n_chunks,
                    cache_hits=hits,
                    cache_misses=misses,
                    evals_skipped=skipped,
                )
            )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._release_segment()
