"""Whole-population vectorised decode over a domain kernel (DESIGN.md §12).

Where :class:`~repro.core.decode_engine.DecodeEngine` makes decoding cheap
by *remembering* per-genome walks, this module makes it cheap by *changing
the unit of work*: a :class:`VectorDecoder` advances every genome of a
:class:`~repro.core.popbuffer.PopulationBuffer` by one gene per iteration
with one :class:`~repro.protocol.DomainKernel` call per question
(``valid_count``, ``advance``, ``goal_mask``) over the rows' state codes —
no per-gene Python bytecode, no boxed floats, no dict lookups.  Rows that
stop (goal reached, genome exhausted) are compressed out of the active
set, so the loop runs ``max(used_genes)`` iterations over ever-shrinking
arrays, and ``goal_fit`` runs once, on the final codes.

The dirty-prefix machinery carries over at row granularity: a row with a
``(prefix_plan, dirty_from)`` hint re-enters at the code of the parent
plan's ``state_keys[dirty]`` (:meth:`~repro.protocol.DomainKernel.
code_of_key`, which cannot miss: a code is the state itself) and resumes
mid-arena.

Exactness contract: results are bit-identical to the object decode path.
The per-gene index ``int(gene * k)`` is reproduced as
``(genes * k).astype(np.int64)`` (float64 multiply then truncation — the
same two operations C-side), goal fitness comes from the kernel's
``goal_fit`` (exact per the :class:`~repro.protocol.DomainKernel`
contract), and the fitness combination applies
:class:`~repro.core.fitness.FitnessFunction`'s expression elementwise —
IEEE float64 arithmetic is identical scalar-by-scalar or array-wise.
Kernel domains are unit-cost, so ``cost = float(used_genes)``, exactly the
sum of ``used_genes`` additions of 1.0.  One simplification the exact
kernel buys: a resumed row never needs the parent's goal flag, because
``goal_mask`` of the resumed code *is* that flag — the engine's careful
``p == used_genes`` case collapses into the uniform stop test.  The suites
in ``tests/core/test_vector_equivalence.py`` enforce bit-identity against
whole GA trajectories; ``tests/core/test_vector_decode.py`` covers the
edges (empty genomes, row-boundary resumes, a parent that stopped inside
the prefix).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.encoding import DecodedPlan
from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["VectorDecoder"]

#: Rows whose plans are rebuilt from one bulk gather of the trace.
_PLAN_BLOCK = 64


class VectorDecoder:
    """Decodes gene arenas against a :class:`~repro.protocol.DomainKernel`.

    One decoder persists across generations (mirroring
    :class:`~repro.core.decode_engine.DecodeEngine`): :meth:`bind` is
    called once per batch with the current evaluation context.
    """

    def __init__(self, kernel: DomainKernel) -> None:
        self.kernel = kernel
        # The kernel holds its domain weakly; the decoder keeps it alive.
        self.domain = domain = kernel.domain
        self._has_dkey = (
            type(domain).decode_key is not PlanningDomain.decode_key
        )
        self._start_code = None
        self._start_key = None
        self._start_dkey = None
        self._truncate = True
        self._gw = 0.0
        self._cw = 0.0
        # Counters (picked up by the evaluator's batch metrics).
        self.vector_rows = 0
        self.vector_genes = 0
        self.genes_reused = 0

    # -- binding ---------------------------------------------------------------

    def bind(self, context) -> None:
        """(Re)target the decoder at *context*'s start state and weights."""
        domain = self.domain
        start = context.start_state
        self._start_key = domain.state_key(start)
        self._start_code = self.kernel.code_of_key(self._start_key)
        self._start_dkey = domain.decode_key(start) if self._has_dkey else None
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
        assert self._start_code is not None, "VectorDecoder.bind() must run first"
        n = int(lengths.shape[0])
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)

        cur = np.full(n, self._start_code, dtype=kernel.code_dtype)
        pos = np.zeros(n, dtype=np.int64)
        # Per-row resume point: walked genes start there.
        resume_at = np.zeros(n, dtype=np.int64)
        prefix_of: List[Optional[DecodedPlan]] = [None] * n
        plans: List[Optional[DecodedPlan]] = [None] * n
        walk = np.ones(n, dtype=bool)

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
                if plan.used_genes < d:
                    # The parent stopped strictly inside the shared genes:
                    # its plan *is* the child's plan, no walking needed.
                    d = plan.used_genes
                    plans[i] = plan
                    walk[i] = False
                else:
                    prefix_of[i] = plan
                cur[i] = kernel.code_of_key(plan.state_keys[d])
                pos[i] = resume_at[i] = d
                self.genes_reused += d

        # Code/slot trace for plan reconstruction: code_tr[i, p] is the
        # state before gene p (the final state sits at column used).
        if keep_plans:
            width = int(lengths.max()) + 1 if n else 1
            code_tr = np.zeros((n, width), dtype=kernel.code_dtype)
            slot_tr = np.zeros((n, width - 1), dtype=np.int8)
        else:
            code_tr = slot_tr = None

        # Initial stop test.  Resumed rows need no special goal handling:
        # the engine's "carry the parent's goal flag" case is subsumed by
        # goal_mask being exactly that flag for the resumed state.
        active = np.flatnonzero(walk)
        stop = pos[active] >= lengths[active]
        if self._truncate:
            stop |= kernel.goal_mask(cur[active])
        active = active[~stop]
        if active.size:
            self._walk(arena, offsets, lengths, cur, pos, active, code_tr, slot_tr)

        # Fitness from the kernel, vectorised with FitnessFunction's exact
        # arithmetic (validate range, clamp, combine).  Every operation
        # costs 1.0, so a plan's cost is its length.
        gfit = kernel.goal_fit(cur)
        reached = kernel.goal_mask(cur)
        bad = (gfit < 0.0) | (gfit > 1.0 + 1e-12)
        if bad.any():
            raise ValueError(
                f"domain {self.domain.name!r} returned goal fitness "
                f"{float(gfit[bad][0])} outside [0, 1]"
            )
        np.minimum(gfit, 1.0, out=gfit)
        cost = pos.astype(np.float64)
        costf = 1.0 / (1.0 + cost)
        total = self._gw * gfit + self._cw * costf

        if keep_plans and n:
            code_tr[np.arange(n), pos] = cur
            self._rebuild_plans(plans, prefix_of, resume_at, pos, reached, code_tr, slot_tr)
        self.vector_rows += n
        return total, gfit, costf, reached, pos, plans

    def _walk(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        cur: np.ndarray,
        pos: np.ndarray,
        rows: np.ndarray,
        code_tr: Optional[np.ndarray],
        slot_tr: Optional[np.ndarray],
    ) -> None:
        """Advance every row in *rows* to its stopping point.

        ``cur`` / ``pos`` are the per-row code and position arrays, written
        back as rows stop; ``code_tr`` / ``slot_tr`` are the trace matrices
        to fill when plans are kept (``None`` otherwise).  Rows enter
        having already passed the initial stop test; the whole active set
        advances one gene per iteration, on compacted per-row arrays.
        """
        kernel = self.kernel
        truncate = self._truncate
        codes = cur[rows]
        at = pos[rows]
        end = lengths[rows]
        base = offsets[rows]
        while rows.size:
            k = kernel.valid_count(codes)
            idx = (arena[base + at] * k).astype(np.int64)
            np.minimum(idx, k - 1, out=idx)
            if code_tr is not None:
                code_tr[rows, at] = codes
                slot_tr[rows, at] = idx
            codes = kernel.advance(codes, idx)
            at = at + 1
            self.vector_genes += int(rows.size)
            stop = at >= end
            if truncate:
                stop |= kernel.goal_mask(codes)
            if stop.any():
                done = rows[stop]
                cur[done] = codes[stop]
                pos[done] = at[stop]
                go = ~stop
                rows, codes, at, end, base = rows[go], codes[go], at[go], end[go], base[go]

    def _rebuild_plans(
        self,
        plans: List[Optional[DecodedPlan]],
        prefix_of: List[Optional[DecodedPlan]],
        resume_at: np.ndarray,
        used: np.ndarray,
        reached: np.ndarray,
        code_tr: np.ndarray,
        slot_tr: np.ndarray,
    ) -> None:
        """Fill every ``None`` entry of *plans* from the code/slot trace.

        The walked steps of a block of rows are gathered at once, so the
        kernel is asked for their operations, state keys and decode keys
        in one bulk call each; rows then slice their runs out of the flat
        lists.  Blocks bound the flat lists' memory.
        """
        kernel = self.kernel
        has_dkey = self._has_dkey
        n = len(plans)
        cols = np.arange(slot_tr.shape[1])
        finals = code_tr[np.arange(n), used].tolist()
        for first in range(0, n, _PLAN_BLOCK):
            blk = slice(first, first + _PLAN_BLOCK)
            steps = (cols >= resume_at[blk, None]) & (cols < used[blk, None])
            after = code_tr[blk, 1:][steps]
            ops = kernel.operations_of(code_tr[blk, :-1][steps], slot_tr[blk][steps])
            keys = kernel.state_keys_of(after)
            dkeys = kernel.decode_keys_of(after) if has_dkey else None
            lo = 0
            for i in range(first, min(first + _PLAN_BLOCK, n)):
                if plans[i] is not None:
                    continue
                e, u = int(resume_at[i]), int(used[i])
                hi = lo + u - e
                prefix = prefix_of[i]
                if prefix is not None:
                    head = (prefix.operations[:e], prefix.state_keys[: e + 1], prefix.match_keys[: e + 1])
                else:
                    head = ((), (self._start_key,), (self._start_dkey,))
                row_keys = head[1] + tuple(keys[lo:hi])
                plans[i] = DecodedPlan(
                    operations=head[0] + tuple(ops[lo:hi]),
                    state_keys=row_keys,
                    match_keys=head[2] + tuple(dkeys[lo:hi]) if has_dkey else row_keys,
                    final_state=kernel.state_of(finals[i]),
                    used_genes=u,
                    goal_reached=bool(reached[i]),
                    cost=float(u),
                )
                lo = hi

    # -- buffer-level entry point ---------------------------------------------

    def evaluate_pending(self, buffer, context) -> int:
        """Evaluate every unevaluated row of *buffer* in place.

        Returns the number of rows decoded.  Fills the packed fitness
        arrays and the ``plans`` list, whatever ``buffer.keep_plans`` says:
        in-process a plan costs no shipping, and it lets the next
        generation's breeding carry prefix hints even under the random
        crossover (only the process pool legitimately skips plans).
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
            "vector_genes_reused": self.genes_reused,
        }
