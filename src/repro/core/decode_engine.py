"""The incremental decode engine: memoised, prefix-resuming evaluation.

Decoding dominates GA runtime (the paper: "the fitness evaluation time has
a significant impact on the overall execution time of a GA"), and most of
that work is redundant — the whole population re-walks heavily overlapping
state trajectories from one start state every generation.  This module
makes evaluation cost proportional to *what changed*, via four composable
layers (DESIGN.md §9):

1. **Transition memoisation** (:class:`TransitionCache`) — extends the
   per-state valid-operation memo of :class:`~repro.core.encoding.
   DecodeCache` with a ``(state, op_index) → (next_state, decode_key,
   op_cost, is_goal)`` table over GC-untrackable entries and interned
   integer state ids, so a warm cache decodes a gene with one int-keyed
   dict lookup instead of ``apply`` + ``state_key`` + ``is_goal`` +
   ``operation_cost`` calls.
2. **Dirty-prefix re-decode** — offspring carry ``dirty_from`` (the first
   gene that may decode differently than in the parent) plus the parent's
   :class:`~repro.core.encoding.DecodedPlan`; decoding resumes from the
   retained prefix instead of the start state.  ``dirty_from`` is
   *conservative*: genes before it are byte-identical to the parent's, so
   the resumed walk is exact, never approximate.
3. **Phenotype dedup + fitness memo** — a ``genes.tobytes()``-fingerprint
   memo scores each distinct genome once; clones, elites and within-batch
   duplicates are served from the memo.  Admission is adaptive: when a
   probe window shows (almost) no duplicates, the memo is dropped and
   paused so non-duplicating workloads don't pay its time and heap cost.
   Dedup is *exact* because decoding
   and fitness are deterministic functions of the genome bytes (given a
   fixed domain, start state, weights and truncation flag — all part of
   the memo signature).
4. **Cache lifetime** — one :class:`DecodeEngine` persists across
   generations, phases and islands; only the fitness memo is invalidated
   when the start state or fitness signature changes, while the transition
   tables (keyed by state identity) survive.

Every layer is individually switchable (``transitions`` / ``prefix`` /
``dedup``) so ``benchmarks/bench_decode_engine.py`` can ablate them.

Exactness contract: with all layers on, decoded plans, fitness values and
whole GA trajectories are *bit-identical* to the reference decoder
(:func:`~repro.core.encoding.decode`, which the test suites run as an
oracle).  This relies
on (a) ``state_key`` being injective (see :class:`~repro.protocol.
PlanningDomain.state_key`), (b) operation objects being reused from the
cached valid tuples (identity-stable), and (c) plan cost being accumulated
left-to-right in gene order, exactly as the naive decoder does.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.encoding import DecodedPlan
from repro.protocol import PlanningDomain

__all__ = ["TransitionCache", "DecodeEngine", "FitnessMemo"]


class FitnessMemo(NamedTuple):
    """A fitness memo detached from its engine (see :meth:`DecodeEngine.swap_memo`).

    ``entries`` maps genome fingerprints to ``(decoded, fitness)``; ``sig``
    is the bind signature they were scored under (``None`` when empty).
    """

    sig: Optional[tuple]
    entries: dict


class _NeedsFullWalk(Exception):
    """A cached walk lost its concrete state (evicted); redo uncached."""


class TransitionCache:
    """Bounded per-state and per-transition memo tables for decoding.

    State keys are *interned* to small integer ids on first sight, and every
    table is keyed by id — the warm decode loop therefore performs one
    int-keyed dict lookup per gene and never hashes a (potentially large,
    nested) ``state_key`` value at all.  Per id the cache holds:

    - one cell list ``[valid_ops_tuple, entry_0, ..., entry_k-1]`` holding
      the valid-operation tuple (the old ``DecodeCache`` payload) and one
      transition entry per operation index; a filled entry ``(next_id,
      next_key, next_decode_key, op_cost, next_is_goal)`` skips
      ``apply``/``state_key``/``decode_key``/``operation_cost``/``is_goal``
      entirely and lands directly on the successor's id (the operation
      itself is recovered as ``valid[idx]``, so entries contain only
      atomic-ish values and CPython's cyclic GC can untrack them — the
      tables would otherwise make every full collection scan the cache);
    - a representative concrete state, needed to recover a full state after
      a run of transition hits (for ``final_state`` and for misses that
      must call back into the domain).

    Tables are bounded to ``max_entries`` distinct states (and as many
    filled transition entries) with pinned-preserving wholesale reset — an
    LRU would cost more bookkeeping than the recompute.  Ids are allocated
    monotonically and never reused, so an id that survives a reset in local
    variables simply misses.  Start keys are pinned via :meth:`pin` so the
    hottest entries survive resets.  When a needed representative state has
    been evicted, decoding transparently falls back to an uncached concrete
    walk (``fallbacks`` counts these).
    """

    def __init__(self, domain: PlanningDomain, max_entries: int = 200_000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.domain = domain
        self.max_entries = max_entries
        self._ids: dict = {}  # state_key -> interned id
        self._next_id = 0
        self._tbl: dict = {}  # id -> [valid ops tuple, entry_0, ..., entry_k-1]
        self._states: dict = {}  # id -> representative concrete state
        self._pinned: dict = {}  # state_key -> pinned concrete state
        self._n_trans = 0
        self._has_dkey = type(domain).decode_key is not PlanningDomain.decode_key
        self._unit_cost = type(domain).operation_cost is PlanningDomain.operation_cost
        self.valid_hits = 0
        self.valid_misses = 0
        self.valid_evictions = 0
        self.trans_hits = 0
        self.trans_misses = 0
        self.trans_evictions = 0
        self.fallbacks = 0

    # -- table maintenance ---------------------------------------------------

    def pin(self, key: Hashable, state: object) -> None:
        """Protect *key* (and its representative state) from resets."""
        self._pinned[key] = state
        self._states[self._id_for(key)] = state

    def state_for(self, key: Hashable):
        """The retained representative state for *key*, or ``None``."""
        sid = self._ids.get(key)
        return self._states.get(sid) if sid is not None else None

    def clear(self) -> None:
        self._ids.clear()
        self._tbl.clear()
        self._states.clear()
        self._n_trans = 0

    def _id_for(self, key: Hashable) -> int:
        sid = self._ids.get(key)
        if sid is None:
            if len(self._ids) >= self.max_entries or self._n_trans >= self.max_entries:
                self._reset()
            sid = self._next_id
            self._next_id += 1
            self._ids[key] = sid
        return sid

    def _reset(self) -> None:
        """Wholesale eviction, keeping pinned keys (and their valid lists)."""
        keep = []  # (key, state, valid-ops tuple or None)
        for key, state in self._pinned.items():
            sid = self._ids.get(key)
            cell = self._tbl.get(sid) if sid is not None else None
            keep.append((key, state, cell[0] if cell is not None else None))
        self.valid_evictions += len(self._tbl) - sum(1 for _, _, v in keep if v is not None)
        self.trans_evictions += self._n_trans
        self._ids.clear()
        self._tbl.clear()
        self._states.clear()
        self._n_trans = 0
        for key, state, valid in keep:
            sid = self._next_id
            self._next_id += 1
            self._ids[key] = sid
            self._states[sid] = state
            if valid is not None:
                self._tbl[sid] = [valid] + [None] * len(valid)

    # -- decoding -------------------------------------------------------------

    def decode(
        self,
        genes: np.ndarray,
        start_state: object,
        truncate_at_goal: bool = True,
        prefix_plan: Optional[DecodedPlan] = None,
        dirty_from: Optional[int] = None,
        start_key: Optional[Hashable] = None,
        start_goal: Optional[bool] = None,
        use_transitions: bool = True,
    ) -> Tuple[DecodedPlan, int]:
        """Decode *genes*, reusing tables and an optional retained prefix.

        Returns ``(plan, genes_reused)`` where ``genes_reused`` counts the
        prefix genes whose decode was taken from *prefix_plan* instead of
        being re-walked.  The result is bit-identical to
        :func:`repro.core.encoding.decode`.
        """
        domain = self.domain
        if start_key is None:
            start_key = domain.state_key(start_state)
        gene_list = genes.tolist() if hasattr(genes, "tolist") else list(genes)
        n = len(gene_list)
        if (
            prefix_plan is not None
            and dirty_from is not None
            and dirty_from > 0
            and prefix_plan.state_keys[0] == start_key
        ):
            dirty = dirty_from if dirty_from <= n else n
            used_p = prefix_plan.used_genes
            if used_p < dirty:
                # The parent's decode already stopped (goal or dead end)
                # strictly inside the shared prefix, so the child decodes to
                # the very same plan; the trailing genes are inert.
                return prefix_plan, used_p
            try:
                return self._resume(
                    gene_list, prefix_plan, dirty, truncate_at_goal, use_transitions
                )
            except _NeedsFullWalk:
                self.fallbacks += 1
        if start_goal is None:
            start_goal = domain.is_goal(start_state)
        start_dkey = domain.decode_key(start_state) if self._has_dkey else None

        def fresh_args():
            return (gene_list, 0, start_state, self._id_for(start_key), [],
                    [start_key], [start_dkey] if self._has_dkey else None, 0.0,
                    start_goal, truncate_at_goal)

        if use_transitions:
            try:
                return self._walk(*fresh_args(), use_transitions=True), 0
            except _NeedsFullWalk:
                self.fallbacks += 1
        return self._walk(*fresh_args(), use_transitions=False), 0

    def _resume(
        self,
        gene_list: list,
        prefix_plan: DecodedPlan,
        p: int,
        truncate: bool,
        use_transitions: bool,
    ) -> Tuple[DecodedPlan, int]:
        """Re-decode from gene *p*, keeping the parent's prefix intact."""
        domain = self.domain
        used_p = prefix_plan.used_genes
        key_p = prefix_plan.state_keys[p]
        if p == used_p:
            state = prefix_plan.final_state
            goal = prefix_plan.goal_reached
        else:
            state = self.state_for(key_p)
            if state is None:
                raise _NeedsFullWalk
            # Under truncation the parent consumed gene p, so state p cannot
            # be a goal state (the parent's walk would have stopped there).
            goal = False if truncate else domain.is_goal(state)
        ops = list(prefix_plan.operations[:p])
        keys = list(prefix_plan.state_keys[: p + 1])
        dkeys = list(prefix_plan.match_keys[: p + 1]) if self._has_dkey else None
        if self._unit_cost:
            # The naive decoder sums 1.0 p times; that is exactly float(p).
            cost = float(p)
        else:
            # Re-accumulate left-to-right so the float additions happen in
            # the same order (and therefore round identically) as a full
            # decode would.
            cost = 0.0
            opcost = domain.operation_cost
            for op in ops:
                cost += opcost(op)
        plan = self._walk(gene_list, p, state, self._id_for(key_p), ops, keys, dkeys,
                          cost, goal, truncate, use_transitions=use_transitions)
        return plan, p

    def _walk(
        self,
        gene_list: list,
        start_pos: int,
        state: object,
        sid: int,
        ops: list,
        keys: list,
        dkeys: Optional[list],
        cost: float,
        goal: bool,
        truncate: bool,
        use_transitions: bool,
    ) -> DecodedPlan:
        domain = self.domain
        tbl = self._tbl
        states = self._states
        has_dkey = self._has_dkey
        # Locals for the hot loop: counter flushes happen on every exit path
        # (including _NeedsFullWalk) so the per-gene traffic accounting stays
        # exact without per-iteration attribute writes.
        v_hits = v_misses = t_hits = t_misses = 0
        ops_append = ops.append
        keys_append = keys.append
        dkeys_append = dkeys.append if has_dkey else None
        used = start_pos
        try:
            if not (truncate and goal):
                for i in range(start_pos, len(gene_list)):
                    cell = tbl.get(sid)
                    if cell is None:
                        v_misses += 1
                        if state is None:
                            state = states.get(sid)
                            if state is None:
                                raise _NeedsFullWalk
                        valid = tuple(domain.valid_operations(state))
                        cell = [valid] + [None] * len(valid)
                        tbl[sid] = cell
                    else:
                        v_hits += 1
                        valid = cell[0]
                    k = len(valid)
                    if k == 0:
                        break  # dead end: remaining genes are inert
                    idx = int(gene_list[i] * k)
                    if idx >= k:
                        idx = k - 1
                    entry = cell[idx + 1] if use_transitions else None
                    if entry is None:
                        if use_transitions:
                            t_misses += 1
                        if state is None:
                            state = states.get(sid)
                            if state is None:
                                raise _NeedsFullWalk
                        op = valid[idx]
                        nstate = domain.apply(state, op)
                        nkey = domain.state_key(nstate)
                        ndkey = domain.decode_key(nstate) if has_dkey else None
                        ncost = domain.operation_cost(op)
                        ngoal = domain.is_goal(nstate)
                        if use_transitions:
                            # _id_for can trigger a wholesale reset; writing
                            # into the captured (possibly orphaned) cell stays
                            # harmless because ids are never reused.
                            nid = self._id_for(nkey)
                            cell[idx + 1] = (nid, nkey, ndkey, ncost, ngoal)
                            self._n_trans += 1
                            if nid not in states:
                                states[nid] = nstate
                        else:
                            nid = self._id_for(nkey)
                        state = nstate
                    else:
                        t_hits += 1
                        op = valid[idx]
                        nid, nkey, ndkey, ncost, ngoal = entry
                        state = None  # concrete state recovered lazily if needed
                    sid = nid
                    ops_append(op)
                    keys_append(nkey)
                    if has_dkey:
                        dkeys_append(ndkey)
                    cost += ncost
                    goal = ngoal
                    used = i + 1
                    if truncate and goal:
                        break
            if state is None:
                state = states.get(sid)
                if state is None:
                    raise _NeedsFullWalk
        finally:
            self.valid_hits += v_hits
            self.valid_misses += v_misses
            self.trans_hits += t_hits
            self.trans_misses += t_misses
        keys_t = tuple(keys)
        return DecodedPlan(
            operations=tuple(ops),
            state_keys=keys_t,
            match_keys=tuple(dkeys) if has_dkey else keys_t,
            final_state=state,
            used_genes=used,
            goal_reached=goal,
            cost=cost,
        )


class DecodeEngine:
    """The four memoisation layers behind one evaluator-facing object.

    An engine outlives any single evaluation batch: :meth:`bind` is called
    once per batch with the current :class:`~repro.core.parallel.
    EvaluationContext` and rebuilds the transition tables only when the
    *domain* changes, while the fitness memo is additionally invalidated
    when the start state, truncation flag or fitness weights change (the
    memo's results depend on all of them; the transition tables do not).

    Layers can be disabled individually (``transitions`` / ``prefix`` /
    ``dedup``) for ablation benchmarks; a fully-disabled engine still
    memoises valid-operation lists, matching the legacy ``DecodeCache``
    behaviour.

    ``adaptive_memo=False`` turns off the memo's low-hit-rate pause below:
    within one run duplicate genomes are rare early, so the probe window
    rightly drops the memo — but a memo kept *across* runs (the planning
    service retains one per request trajectory, see :meth:`swap_memo`)
    lets a repeated request replay whole genome populations, and pausing
    would discard exactly the state that makes those repeats cheap.
    """

    def __init__(
        self,
        transitions: bool = True,
        prefix: bool = True,
        dedup: bool = True,
        max_entries: int = 200_000,
        memo_entries: int = 100_000,
        adaptive_memo: bool = True,
    ) -> None:
        if memo_entries < 1:
            raise ValueError(f"memo_entries must be >= 1, got {memo_entries}")
        self.transitions = transitions
        self.prefix = prefix
        self.dedup = dedup
        self.max_entries = max_entries
        self.memo_entries = memo_entries
        self.adaptive_memo = adaptive_memo
        # Memo admission control: every `memo_probe_interval` stores the
        # window hit rate is probed; under ~1% the memo is dropped and paused
        # until the next signature change.  A memo that never hits only costs
        # time and retained heap — every stored plan is container-heavy and
        # gets scanned by full GC passes.
        self.memo_probe_interval = 512
        self._memo_paused = False
        self._memo_window_hits = 0
        self._memo_window_stores = 0
        self._cache: Optional[TransitionCache] = None
        self._domain: Optional[PlanningDomain] = None
        self._sig: Optional[tuple] = None
        self._memo: dict = {}
        self._memo_sig: Optional[tuple] = None
        self._start_state: object = None
        self._start_key: Optional[Hashable] = None
        self._start_goal: bool = False
        self._truncate: bool = True
        self.evals_skipped = 0
        self.genes_reused = 0
        self.memo_evictions = 0

    @property
    def active(self) -> bool:
        """Whether the engine has been bound to a context at least once."""
        return self._cache is not None

    def bind(self, context) -> None:
        """(Re)target the engine at *context*, invalidating what must be."""
        domain = context.domain
        if self._cache is None or self._domain is not domain:
            if self._domain is not None:
                self._memo_sig = None  # a memo never crosses domains
            self._cache = TransitionCache(domain, self.max_entries)
            self._domain = domain
            self._sig = None
        start = context.start_state
        start_key = domain.state_key(start)
        fit = context.fitness
        sig = (start_key, context.truncate_at_goal, fit.goal_weight, fit.cost_weight)
        if sig != self._memo_sig:
            self._memo.clear()
            self._memo_paused = False
            self._memo_window_hits = 0
            self._memo_window_stores = 0
            self._memo_sig = sig
        if sig != self._sig:
            self._sig = sig
            self._start_state = start
            self._start_key = start_key
            self._start_goal = bool(domain.is_goal(start))
            self._truncate = context.truncate_at_goal
            self._cache.pin(start_key, start)

    def swap_memo(self, memo: Optional[FitnessMemo] = None) -> FitnessMemo:
        """Install *memo* (a fresh one when ``None``); return the one replaced.

        The planning service moves one request trajectory's memo between
        engines this way.  The caller vouches that *memo* was scored on a
        domain equal to the one this engine is (or will first be) bound to;
        a memo scored under another signature is dropped at the next
        :meth:`bind`, so every hit is still decided by the signature check
        and the genome fingerprint alone.
        """
        old = FitnessMemo(self._memo_sig, self._memo)
        self._memo_sig, self._memo = memo if memo is not None else (None, {})
        self._memo_paused = False
        self._memo_window_hits = 0
        self._memo_window_stores = 0
        return old

    # -- the layers -----------------------------------------------------------

    def lookup(self, fingerprint: bytes):
        """Layer 3: memoised ``(decoded, fitness)`` for a genome, or None."""
        if not self.dedup or self._memo_paused:
            return None
        hit = self._memo.get(fingerprint)
        if hit is not None:
            self.evals_skipped += 1
            self._memo_window_hits += 1
        return hit

    def store(self, fingerprint: bytes, decoded: DecodedPlan, fitness) -> None:
        if not self.dedup or self._memo_paused:
            return
        memo = self._memo
        if len(memo) >= self.memo_entries:
            self.memo_evictions += len(memo)
            memo.clear()
        memo[fingerprint] = (decoded, fitness)
        self._memo_window_stores += 1
        if self._memo_window_stores >= self.memo_probe_interval:
            if self.adaptive_memo and self._memo_window_hits * 100 < self._memo_window_stores:
                # Workload with (almost) no duplicate genomes: drop the memo
                # and stop admitting until the next bind() signature change.
                self._memo_paused = True
                self.memo_evictions += len(memo)
                memo.clear()
            self._memo_window_hits = 0
            self._memo_window_stores = 0

    def decode(
        self,
        genes: np.ndarray,
        prefix_plan: Optional[DecodedPlan] = None,
        dirty_from: Optional[int] = None,
    ) -> DecodedPlan:
        """Layers 1+2: decode through the tables, resuming a prefix if given."""
        assert self._cache is not None, "DecodeEngine.bind() must run first"
        if not self.prefix:
            prefix_plan = None
            dirty_from = None
        plan, reused = self._cache.decode(
            genes,
            self._start_state,
            truncate_at_goal=self._truncate,
            prefix_plan=prefix_plan,
            dirty_from=dirty_from,
            start_key=self._start_key,
            start_goal=self._start_goal,
            use_transitions=self.transitions,
        )
        self.genes_reused += reused
        return plan

    def evaluate_genes(self, genes: np.ndarray, fitness_fn, prefix_plan=None, dirty_from=None):
        """Full pipeline for one genome: memo → decode → score → store."""
        fp = genes.tobytes()
        hit = self.lookup(fp)
        if hit is not None:
            return hit
        decoded = self.decode(genes, prefix_plan, dirty_from)
        fitness = fitness_fn(decoded)
        self.store(fp, decoded, fitness)
        return decoded, fitness

    # -- introspection ---------------------------------------------------------

    def cache_info(self) -> Optional[Tuple[int, int]]:
        """Valid-table ``(hits, misses)`` — the legacy decode-cache stats."""
        if self._cache is None:
            return None
        return self._cache.valid_hits, self._cache.valid_misses

    def counters(self) -> dict:
        """All engine counters, flat, using the canonical metric names."""
        c = self._cache
        return {
            "decode_cache_hits": c.valid_hits if c else 0,
            "decode_cache_misses": c.valid_misses if c else 0,
            "decode_cache_evictions": c.valid_evictions if c else 0,
            "transition_cache_hits": c.trans_hits if c else 0,
            "transition_cache_misses": c.trans_misses if c else 0,
            "transition_cache_evictions": c.trans_evictions if c else 0,
            "decode_fallbacks": c.fallbacks if c else 0,
            "evals_skipped": self.evals_skipped,
            "genes_reused": self.genes_reused,
            "memo_evictions": self.memo_evictions,
        }
