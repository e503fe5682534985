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

That loop pays a fixed numpy cost per gene position, however few rows
are live, so a batch of fewer than :data:`SCALAR_ROWS` rows (a service
request's population, a pool chunk, one lazily decoded plan) walks row
by row in plain Python instead, one :meth:`~repro.protocol.DomainKernel.
step` per gene.  When plans are kept, both walks hand the same trace to
the same plan rebuild; otherwise both take an untraced branch.

The dirty-prefix machinery carries over at row granularity, for buffers
that keep plans (no other row has a parent plan): a row with a
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
whole GA trajectories and both walks row by row on either side of
:data:`SCALAR_ROWS`; ``tests/core/test_vector_decode.py`` covers the
edges (empty genomes, row-boundary resumes, a parent that stopped inside
the prefix).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.encoding import DecodedPlan
from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["RowDecoder", "VectorDecoder", "SCALAR_ROWS"]

#: Rows whose plans are rebuilt from one bulk gather of the trace.
_PLAN_BLOCK = 64

#: Batches of fewer rows walk row by row in plain Python; larger batches
#: walk together in numpy.  The crossover measured in DESIGN.md §12.
SCALAR_ROWS = 96


class RowDecoder:
    """The batch contract both decoders keep (DESIGN.md §9, §12).

    A decoder persists across generations and implements three calls:
    ``bind(context)`` (re)targets it at an evaluation context once per
    batch; ``decode_rows(arena, offsets, lengths, keep_plans, hints)``
    decodes and scores genome rows out of a gene arena, returning
    ``(total, goal, cost, reached, used, plans)``; and ``counters()``
    reports its cumulative work under canonical metric names.  A worker
    process, an evaluator and a service lease therefore score rows
    through the same calls, whichever decoder the domain has, and
    :meth:`evaluate_pending` is written once on top of them.
    """

    def evaluate_pending(self, buffer, context, rows: Optional[np.ndarray] = None) -> int:
        """Evaluate *rows* of *buffer* (default: every unevaluated row) in place.

        Returns the number of rows decoded.  Fills the packed fitness
        arrays, and the ``plans`` list as ``buffer.keep_plans`` says: the
        one plan rule the process pool keeps too.  Under the random
        crossover the code decoder builds no plan, so no row has a parent
        plan to resume from and every row walks from the start code; the
        generation best is decoded lazily (``GARun._evaluate_and_record``).
        A :class:`~repro.core.decode_engine.DecodeEngine` builds every plan
        anyway, so its rows keep resuming.  Prefix hints are consumed and
        cleared.  The decoder is bound even when no row is pending, so it
        is always targeted at the domain it last evaluated for.
        """
        if rows is None:
            rows = np.flatnonzero(~buffer.evaluated)
        self.bind(context)
        if rows.size == 0:
            return 0
        total, gfit, costf, reached, _used, plans = self.decode_rows(
            buffer.genes,
            buffer.offsets[rows],
            buffer.lengths[rows],
            buffer.keep_plans,
            buffer.hints(rows),
        )
        buffer.write_results(rows, total, gfit, costf, reached, plans)
        return int(rows.size)


class VectorDecoder(RowDecoder):
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
        :class:`DecodedPlan` for every row when *keep_plans* is true: the
        walks then trace their steps and :meth:`_fill_plans` rebuilds the
        plans.  Otherwise nothing is traced, and only a row fully served
        by its parent prefix (whose plan already exists) gets a plan;
        remaining entries are ``None``.  ``hints[i]`` may hold a
        ``(prefix_plan, dirty_from)`` pair for resume; only plan-keeping
        buffers have them.  Fewer
        than :data:`SCALAR_ROWS` rows walk one by one through
        :meth:`~repro.protocol.DomainKernel.step`; more walk together.
        """
        kernel = self.kernel
        assert self._start_code is not None, "VectorDecoder.bind() must run first"
        n = int(lengths.shape[0])
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)

        cur = np.full(n, self._start_code, dtype=kernel.code_dtype)
        pos = np.zeros(n, dtype=np.int64)
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
                pos[i] = d
                self.genes_reused += d
        # Per-row resume point: walked genes start there.
        resume_at = pos.copy()

        # Initial stop test.  Resumed rows need no special goal handling:
        # the engine's "carry the parent's goal flag" case is subsumed by
        # goal_mask being exactly that flag for the resumed state.
        active = np.flatnonzero(walk)
        stop = pos[active] >= lengths[active]
        if self._truncate:
            stop |= kernel.goal_mask(cur[active])
        active = active[~stop]
        steps = None
        if n < SCALAR_ROWS:
            steps = self._walk_scalar(arena, offsets, lengths, cur, pos, active, keep_plans)
        elif active.size:
            steps = self._walk(arena, offsets, lengths, cur, pos, active, keep_plans)

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
            finals = cur.tolist()
            # No walked steps at all: every plan is its head alone.
            for block in steps or [(0, n, None, None, None)]:
                self._fill_plans(plans, block, prefix_of, resume_at, pos, reached, finals)
        self.vector_rows += n
        return total, gfit, costf, reached, pos, plans

    def _walk_scalar(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        cur: np.ndarray,
        pos: np.ndarray,
        rows: np.ndarray,
        keep_plans: bool,
    ):
        """Advance each row in *rows* to its stopping point, one at a time.

        The row-by-row twin of :meth:`_walk`, on Python ints through
        :meth:`~repro.protocol.DomainKernel.step`: ``cur`` / ``pos`` get
        each row's final code and position.  With *keep_plans* it returns
        the walked steps in the form :meth:`_fill_plans` reads, as one
        block of every row.
        """
        step = self.kernel.step
        truncate = self._truncate
        walked = 0
        seq: list = []  # per walked row: its codes from resume point to end
        slots: list = []
        firsts: list = []  # index into seq of each walked row's first code
        seq_append, slot_append = seq.append, slots.append
        for i in rows.tolist():
            code = int(cur[i])
            at = int(pos[i])
            o = int(offsets[i])
            genes = arena[o + at : o + int(lengths[i])].tolist()
            if keep_plans:
                firsts.append(len(seq))
                seq_append(code)
                for gene in genes:
                    slot, code, goal = step(code, gene)
                    seq_append(code)
                    slot_append(slot)
                    if goal and truncate:
                        break
                taken = len(seq) - 1 - firsts[-1]
            else:
                taken = 0
                for gene in genes:
                    _, code, goal = step(code, gene)
                    taken += 1
                    if goal and truncate:
                        break
            cur[i] = code
            pos[i] = at + taken
            walked += taken
        self.vector_genes += walked
        if not keep_plans:
            return None
        codes = np.array(seq, dtype=self.kernel.code_dtype)
        first = np.zeros(len(seq), dtype=bool)
        first[firsts] = True
        # A row's last code precedes the next row's first; the final row's
        # wraps round to row 0's.
        last = np.roll(first, -1)
        return [(0, int(cur.shape[0]), codes[~last], np.array(slots, dtype=np.int64), codes[~first])]

    def _walk(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        cur: np.ndarray,
        pos: np.ndarray,
        rows: np.ndarray,
        keep_plans: bool,
    ):
        """Advance every row in *rows* to its stopping point, all together.

        ``cur`` / ``pos`` are the per-row code and position arrays, written
        back as rows stop.  Rows enter having already passed the initial
        stop test; the whole active set advances one gene per iteration,
        on compacted per-row arrays.  With *keep_plans* a code/slot trace
        is kept (``code_tr[i, p]`` is the state before gene ``p``) and
        returned as :meth:`_fill_plans` blocks.
        """
        kernel = self.kernel
        truncate = self._truncate
        n = int(cur.shape[0])
        resume_at = pos.copy()
        if keep_plans:
            width = int(lengths.max()) + 1
            code_tr = np.zeros((n, width), dtype=kernel.code_dtype)
            slot_tr = np.zeros((n, width - 1), dtype=np.int8)
        codes = cur[rows]
        at = pos[rows]
        end = lengths[rows]
        base = offsets[rows]
        while rows.size:
            k = kernel.valid_count(codes)
            idx = (arena[base + at] * k).astype(np.int64)
            np.minimum(idx, k - 1, out=idx)
            if keep_plans:
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
        if not keep_plans:
            return None
        # The walked steps of a block of rows are gathered at once; blocks
        # bound the flat arrays' memory.
        code_tr[np.arange(n), pos] = cur
        cols = np.arange(width - 1)
        blocks = []
        for first in range(0, n, _PLAN_BLOCK):
            blk = slice(first, first + _PLAN_BLOCK)
            walked = (cols >= resume_at[blk, None]) & (cols < pos[blk, None])
            blocks.append((
                first, min(first + _PLAN_BLOCK, n),
                code_tr[blk, :-1][walked], slot_tr[blk][walked], code_tr[blk, 1:][walked],
            ))
        return blocks

    def _fill_plans(
        self,
        plans: List[Optional[DecodedPlan]],
        block: tuple,
        prefix_of: List[Optional[DecodedPlan]],
        resume_at: np.ndarray,
        used: np.ndarray,
        reached: np.ndarray,
        finals: list,
    ) -> None:
        """Fill the ``None`` plans of one block of rows from its walked steps.

        *block* is ``(first, stop, before, slots, after)``: rows ``first``
        to ``stop`` and every step they walked, back to back in row order
        (row ``i`` has ``used[i] - resume_at[i]`` of them) as code, slot
        and next-code arrays, or ``None`` when no row walked.  The kernel
        is asked for the steps' operations, state keys and decode keys in
        one bulk call each, and rows slice their runs out of the flat lists.
        """
        kernel = self.kernel
        has_dkey = self._has_dkey
        first, stop, before, slots, after = block
        if before is None or not before.size:
            ops = keys = dkeys = []
        else:
            ops = kernel.operations_of(before, slots)
            keys = kernel.state_keys_of(after)
            dkeys = kernel.decode_keys_of(after) if has_dkey else None
        lo = 0
        for i in range(first, stop):
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

    def counters(self) -> dict:
        """Decoder counters, flat, using canonical metric names."""
        return {
            "vector_rows": self.vector_rows,
            "vector_genes": self.vector_genes,
            "genes_reused": self.genes_reused,
        }
