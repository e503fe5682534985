"""Whole-population vectorised decode over a domain kernel (DESIGN.md §12).

Where :class:`~repro.core.decode_engine.DecodeEngine` makes decoding cheap
by *remembering* per-genome walks, this module makes it cheap by *changing
the unit of work*: a :class:`VectorDecoder` advances every genome of a
:class:`~repro.core.popbuffer.PopulationBuffer` by one gene per iteration
with a handful of numpy gathers against a :class:`~repro.protocol.
DomainKernel`'s int tables — no per-gene Python bytecode, no boxed floats,
no dict lookups.  Rows that stop (goal, dead end, genome exhausted) are
compressed out of the active set, so the loop runs ``max(used_genes)``
iterations over ever-shrinking arrays.

The dirty-prefix machinery carries over at row granularity: a row with a
``(prefix_plan, dirty_from)`` hint re-enters the tables at the parent
plan's ``state_keys[dirty]`` via :meth:`~repro.protocol.DomainKernel.
id_for_key` and resumes mid-arena; a miss (kernel reset since the parent
was decoded) falls back to decoding the row from gene 0 — never to the
object path, so a batch is all-vector or not dispatched here at all.

Exactness contract: results are bit-identical to the object decode path.
The per-gene index ``int(gene * k)`` is reproduced as
``(genes * k).astype(np.int64)`` (float64 multiply then truncation — the
same two operations C-side), goal fitness comes from the kernel's
``goal_fit`` table (exact per the :class:`~repro.protocol.DomainKernel`
contract), and the fitness combination applies
:class:`~repro.core.fitness.FitnessFunction`'s expression elementwise —
IEEE float64 arithmetic is identical scalar-by-scalar or array-wise.
Unit-cost plans get ``cost = float(used_genes)``, exactly the sum of
``used_genes`` additions of 1.0; non-unit costs are gathered per step and
accumulated in gene order, matching the naive decoder's left-to-right
rounding.  One simplification the exact tables buy: a resumed row never
needs the parent's goal flag, because ``goal_mask[sid]`` *is* that flag —
the engine's careful ``p == used_genes`` case collapses into the uniform
stop test.  The suites in ``tests/core/test_vector_equivalence.py``
enforce bit-identity against whole GA trajectories;
``tests/core/test_vector_decode.py`` covers the edges (empty genomes, dead
ends, row-boundary resumes, evicted-transition fallback).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.encoding import DecodedPlan
from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["VectorDecoder"]

#: Sentinel for "key not yet memoised" in the sid→key caches (state keys
#: themselves may be any hashable value, so ``None`` is not safe).
_MISSING = object()


class VectorDecoder:
    """Decodes gene arenas against a :class:`~repro.protocol.DomainKernel`.

    One decoder persists across generations (mirroring
    :class:`~repro.core.decode_engine.DecodeEngine`): :meth:`bind` is
    called once per batch with the current evaluation context and
    re-interns the start state only when it, or the kernel epoch, changed.
    """

    def __init__(self, kernel: DomainKernel) -> None:
        self.kernel = kernel
        # The kernel holds its domain weakly; the decoder keeps it alive.
        self.domain = domain = kernel.domain
        self._has_dkey = (
            type(domain).decode_key is not PlanningDomain.decode_key
        )
        self._start_sid: Optional[int] = None
        self._start_key = None
        self._start_dkey = None
        self._epoch = -1
        # sid → state_key / decode_key / operations memo for plan
        # reconstruction, the only one: kernels rebuild keys from packed
        # rows on every state_key_of call, which dominates rebuild cost
        # without this (states repeat heavily across rows and
        # generations).  Cleared whenever the epoch moves.
        self._keys: List[object] = []
        self._dkeys: List[object] = []
        self._ops: List[object] = []
        self._truncate = True
        self._gw = 0.0
        self._cw = 0.0
        # Counters (picked up by the evaluator's batch metrics).
        self.vector_rows = 0
        self.vector_genes = 0
        self.prefix_fallbacks = 0
        self.genes_reused = 0
        self.kernel_resets = 0

    # -- binding ---------------------------------------------------------------

    def bind(self, context) -> None:
        """(Re)target the decoder at *context*'s start state and weights."""
        kernel = self.kernel
        if kernel.overflowed:
            kernel.reset()
            self.kernel_resets += 1
        domain = self.domain
        start = context.start_state
        start_key = domain.state_key(start)
        if (
            self._start_sid is None
            or self._start_key != start_key
            or self._epoch != kernel.epoch
        ):
            if self._epoch != kernel.epoch:
                self._keys.clear()
                self._dkeys.clear()
                self._ops.clear()
            self._start_sid = kernel.intern(start)
            self._start_key = start_key
            self._start_dkey = domain.decode_key(start) if self._has_dkey else None
            self._epoch = kernel.epoch
        self._truncate = context.truncate_at_goal
        fit = context.fitness
        self._gw = fit.goal_weight
        self._cw = fit.cost_weight

    # -- the decode loop -------------------------------------------------------

    def decode_rows(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        keep_plans: bool,
        hints: Optional[List[Optional[Tuple[DecodedPlan, int]]]] = None,
    ):
        """Decode ``len(offsets)`` genome rows out of a shared arena.

        Returns ``(total, goal, costf, reached, used, plans)`` — float64 /
        bool / int64 arrays plus a per-row plan list.  ``plans`` holds a
        :class:`DecodedPlan` for every row when *keep_plans* is true, and
        otherwise only for rows fully served by their parent prefix (whose
        plan already exists); remaining entries are ``None``.  ``hints[i]``
        may hold a ``(prefix_plan, dirty_from)`` pair for resume.
        """
        kernel = self.kernel
        assert self._start_sid is not None, "VectorDecoder.bind() must run first"
        n = int(lengths.shape[0])
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        unit = kernel.unit_cost

        cur = np.full(n, self._start_sid, dtype=np.int64)
        pos = np.zeros(n, dtype=np.int64)
        cost = np.zeros(n, dtype=np.float64)
        # Rows whose decode is fully served by the parent prefix (the parent
        # stopped strictly inside the shared genes): the parent's plan *is*
        # the child's plan, no walking needed.
        copied: dict = {}
        # Per-row resume bookkeeping for plan reconstruction.
        resume_at = np.zeros(n, dtype=np.int64)
        prefix_of: List[Optional[DecodedPlan]] = [None] * n

        if hints is not None:
            for i, hint in enumerate(hints):
                if hint is None:
                    continue
                plan, dirty = hint
                # Mirrors TransitionCache.decode's prefix-validity test.
                if plan is None or dirty is None or dirty <= 0:
                    continue
                if plan.state_keys[0] != self._start_key:
                    continue
                length = int(lengths[i])
                d = dirty if dirty <= length else length
                used_p = plan.used_genes
                if used_p < d:
                    copied[i] = plan
                    self.genes_reused += used_p
                    continue
                sid = kernel.id_for_key(plan.state_keys[d])
                if sid is None:
                    self.prefix_fallbacks += 1
                    continue  # evicted since the parent decoded: full redo
                cur[i] = sid
                pos[i] = d
                resume_at[i] = d
                prefix_of[i] = plan
                if unit:
                    cost[i] = float(d)
                else:
                    # Left-to-right re-accumulation: same rounding as a full
                    # decode (mirrors TransitionCache._resume).
                    opcost = self.domain.operation_cost
                    acc = 0.0
                    for op in plan.operations[:d]:
                        acc += opcost(op)
                    cost[i] = acc
                self.genes_reused += d

        # Slot/successor trace for plan reconstruction.
        if keep_plans:
            max_len = int(lengths.max()) if n else 0
            slot_tr = np.full((n, max_len), -1, dtype=np.int32)
            id_tr = np.full((n, max_len), -1, dtype=np.int32)
        else:
            slot_tr = id_tr = None

        active = np.arange(n, dtype=np.int64)
        if copied:
            mask = np.ones(n, dtype=bool)
            mask[list(copied)] = False
            active = active[mask]
        # Initial stop test.  Resumed rows need no special goal handling:
        # the engine's "carry the parent's goal flag" case is subsumed by
        # goal_mask being exactly that flag for the resumed state.
        stop = pos[active] >= lengths[active]
        if self._truncate:
            stop |= kernel.goal_mask[cur[active]]
        active = active[~stop]

        if active.size:
            self._walk(arena, offsets, lengths, cur, pos, cost, active, slot_tr, id_tr)

        # Fitness from the tables, vectorised with FitnessFunction's exact
        # arithmetic (validate range, clamp, combine).
        gfit = kernel.goal_fit[cur].copy()
        reached = kernel.goal_mask[cur].copy()
        used = pos
        bad = (gfit < 0.0) | (gfit > 1.0 + 1e-12)
        if bad.any():
            raise ValueError(
                f"domain {self.domain.name!r} returned goal fitness "
                f"{float(gfit[bad][0])} outside [0, 1]"
            )
        np.minimum(gfit, 1.0, out=gfit)
        costf = 1.0 / (1.0 + cost)
        total = self._gw * gfit + self._cw * costf

        if keep_plans and n:
            self._prefill_keys(id_tr)
        plans: List[Optional[DecodedPlan]] = [None] * n
        for i, plan in copied.items():
            # Prefix-served rows: the plan is authoritative; score it with
            # the scalar FitnessFunction arithmetic (identical to the array
            # expression, and these rows were never walked above).
            g = float(self.domain.goal_fitness(plan.final_state))
            if not 0.0 <= g <= 1.0 + 1e-12:
                raise ValueError(
                    f"domain {self.domain.name!r} returned goal fitness "
                    f"{g} outside [0, 1]"
                )
            g = min(g, 1.0)
            fc = 1.0 / (1.0 + plan.cost)
            gfit[i] = g
            costf[i] = fc
            total[i] = self._gw * g + self._cw * fc
            reached[i] = plan.goal_reached
            cost[i] = plan.cost
            used[i] = plan.used_genes
            plans[i] = plan
        if keep_plans:
            for i in range(n):
                if plans[i] is None:
                    plans[i] = self._rebuild_plan(
                        i,
                        int(used[i]),
                        int(resume_at[i]),
                        prefix_of[i],
                        slot_tr,
                        id_tr,
                        int(cur[i]),
                        float(cost[i]),
                        bool(reached[i]),
                    )
        self.vector_rows += n
        return total, gfit, costf, reached, used, plans

    def _walk(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        cur: np.ndarray,
        pos: np.ndarray,
        cost: np.ndarray,
        active: np.ndarray,
        slot_tr: Optional[np.ndarray],
        id_tr: Optional[np.ndarray],
    ) -> None:
        """Advance every row in *active* to its stopping point, in place.

        ``cur`` / ``pos`` / ``cost`` are the per-row state arrays (updated
        in place); ``slot_tr`` / ``id_tr`` are the trace matrices to fill
        when plans are kept (``None`` otherwise).  Rows enter having
        already passed the initial stop test; the whole active set advances
        one gene per iteration.
        """
        kernel = self.kernel
        unit = kernel.unit_cost
        keep_plans = slot_tr is not None
        while active.size:
            # Re-read tables each iteration: fill_transitions may reallocate.
            k = kernel.valid_count[cur[active]].astype(np.int64)
            alive = k > 0  # k == 0: dead end, row is finished
            if not alive.all():
                active = active[alive]
                if not active.size:
                    break
                k = k[alive]
            g = arena[offsets[active] + pos[active]]
            idx = (g * k).astype(np.int64)
            np.minimum(idx, k - 1, out=idx)
            nxt = kernel.succ[cur[active], idx].astype(np.int64)
            miss = nxt < 0
            if miss.any():
                kernel.fill_transitions(cur[active][miss], idx[miss])
                nxt[miss] = kernel.succ[cur[active][miss], idx[miss]]
            if keep_plans:
                slot_tr[active, pos[active]] = idx
                id_tr[active, pos[active]] = nxt
            if unit:
                cost[active] += 1.0
            else:
                cost[active] += kernel.op_cost[cur[active], idx]
            pos[active] += 1
            cur[active] = nxt
            self.vector_genes += int(active.size)
            stop = pos[active] >= lengths[active]
            if self._truncate:
                stop |= kernel.goal_mask[cur[active]]
            active = active[~stop]

    def _prefill_keys(self, id_tr: np.ndarray) -> None:
        """Bulk-memoise every lookup the plan rebuild loop will make.

        Gathers the unique ids in the batch's successor trace and fetches
        their (state, decode) keys through the kernel's vectorised bulk
        API — plus their valid-operation tuples — so :meth:`_rebuild_plan`
        runs entirely on cache hits (direct list indexing, no per-step
        method calls).
        """
        sids = id_tr[id_tr >= 0]
        if not sids.size:
            return
        uniq = np.unique(sids).tolist()
        top = uniq[-1]
        for cache, bulk in (
            (self._keys, self.kernel.state_keys_of),
            (self._dkeys, self.kernel.decode_keys_of) if self._has_dkey else (None, None),
        ):
            if cache is None:
                continue
            if top >= len(cache):
                cache.extend([_MISSING] * (top + 1 - len(cache)))
            miss = [s for s in uniq if cache[s] is _MISSING]
            if miss:
                for sid, key in zip(miss, bulk(np.asarray(miss, dtype=np.int64))):
                    cache[sid] = key
        ops_cache = self._ops
        if top >= len(ops_cache):
            ops_cache.extend([_MISSING] * (top + 1 - len(ops_cache)))
        operations_of = self.kernel.operations_of
        for s in uniq:
            if ops_cache[s] is _MISSING:
                ops_cache[s] = operations_of(s)

    def _ops_of(self, sid: int):
        """Memoised ``kernel.operations_of`` (cleared on epoch change)."""
        cache = self._ops
        if sid >= len(cache):
            cache.extend([_MISSING] * (sid + 1 - len(cache)))
        ops = cache[sid]
        if ops is _MISSING:
            ops = cache[sid] = self.kernel.operations_of(sid)
        return ops

    def _rebuild_plan(
        self,
        row: int,
        used: int,
        resume_at: int,
        prefix: Optional[DecodedPlan],
        slot_tr: np.ndarray,
        id_tr: np.ndarray,
        final_sid: int,
        cost: float,
        reached: bool,
    ) -> DecodedPlan:
        """Reconstruct one row's :class:`DecodedPlan` from the slot trace."""
        kernel = self.kernel
        has_dkey = self._has_dkey
        if prefix is not None and resume_at > 0:
            ops = list(prefix.operations[:resume_at])
            keys = list(prefix.state_keys[: resume_at + 1])
            dkeys = list(prefix.match_keys[: resume_at + 1]) if has_dkey else None
            prev_sid = kernel.id_for_key(keys[-1])
            assert prev_sid is not None  # interned at resume; no reset mid-batch
        else:
            ops = []
            keys = [self._start_key]
            dkeys = [self._start_dkey] if has_dkey else None
            prev_sid = self._start_sid
        # Row traces as plain int lists (one C-level tolist beats per-step
        # numpy scalar indexing); every traced sid was covered by
        # _prefill_keys, so the memo lists are indexed directly via map().
        slots = slot_tr[row, resume_at:used].tolist()
        sids = id_tr[row, resume_at:used].tolist()
        if sids:
            keys.extend(map(self._keys.__getitem__, sids))
            if has_dkey:
                dkeys.extend(map(self._dkeys.__getitem__, sids))
            # Operation p comes from the *predecessor* chain: the entry
            # state, then every traced sid but the last.
            self._ops_of(prev_sid)  # resume/start sid may not be traced
            chain = sids[:-1]
            chain.insert(0, prev_sid)
            ops.extend(
                row_ops[slot]
                for row_ops, slot in zip(map(self._ops.__getitem__, chain), slots)
            )
        keys_t = tuple(keys)
        return DecodedPlan(
            operations=tuple(ops),
            state_keys=keys_t,
            match_keys=tuple(dkeys) if has_dkey else keys_t,
            final_state=kernel.state_of(final_sid),
            used_genes=used,
            goal_reached=reached,
            cost=cost,
        )

    # -- buffer-level entry point ---------------------------------------------

    def evaluate_pending(self, buffer, context) -> int:
        """Evaluate every unevaluated row of *buffer* in place.

        Returns the number of rows decoded.  Fills the packed fitness
        arrays and the ``plans`` list, whatever ``buffer.keep_plans`` says:
        in-process a plan costs no shipping, and it lets the next
        generation's breeding carry prefix hints even under the random
        crossover (only shared-memory dispatch legitimately skips plans).
        Prefix hints are consumed and cleared.
        """
        pending, hints = buffer.pending_hints()
        if pending.size == 0:
            return 0
        self.bind(context)
        total, gfit, costf, reached, used, plans = self.decode_rows(
            buffer.genes,
            buffer.offsets[pending],
            buffer.lengths[pending],
            True,
            hints,
        )
        buffer.total[pending] = total
        buffer.goal[pending] = gfit
        buffer.cost[pending] = costf
        buffer.goal_reached[pending] = reached
        buffer.evaluated[pending] = True
        for j, i in enumerate(pending):
            i = int(i)
            buffer.plans[i] = plans[j]
            buffer.prefix_plans[i] = None
            buffer.dirty_from[i] = -1
        return int(pending.size)

    def counters(self) -> dict:
        """Decoder counters, flat, using canonical metric names."""
        return {
            "vector_rows": self.vector_rows,
            "vector_genes": self.vector_genes,
            "vector_prefix_fallbacks": self.prefix_fallbacks,
            "vector_genes_reused": self.genes_reused,
            "vector_kernel_resets": self.kernel_resets,
            "vector_kernel_states": self.kernel.n_states,
        }
