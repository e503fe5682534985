"""Structure-of-arrays population engine (DESIGN.md §11).

A :class:`PopulationBuffer` packs every genome of one generation into a
single contiguous ``float64`` arena indexed by ``offsets``/``lengths``
arrays, with parallel ``total``/``goal``/``cost``/``goal_reached`` fitness
arrays and per-row incremental-decode bookkeeping (``dirty_from`` plus
prefix-plan references).  The generation step — tournament selection,
crossover, mutation, elitism — runs directly on the arrays: selection is one
batched draw plus an argmax gather, offspring are materialised with slice
copies into a freshly allocated arena, and every mutation in the generation
lands in one vectorised scatter.

**Replay-exact randomness.**  The paper's operators draw from the generator
per individual, in a data-dependent, interleaved order (pair coin →
crossover cuts → per-child mutation mask → replacement values), so a
literally "arena-wide" mask draw would change the stream and break
reproducibility against existing runs.  Instead the pair loop below issues
those draws in that order through the shared samplers
(:func:`~repro.core.crossover.sample_crossover_cuts`,
:func:`~repro.core.mutation.sample_uniform_reset`,
:func:`~repro.core.selection.tournament_winner_indices`), while all data
movement — parent copies, splices, mutation application — is batched away.
The test suite holds :func:`breed` bit-identical to an object reference
step that applies the same operators one Individual at a time
(``tests/oracle.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.crossover import sample_crossover_cuts
from repro.core.fitness import FitnessResult
from repro.core.individual import Individual
from repro.core.mutation import sample_uniform_reset
from repro.core.selection import tournament_winner_indices

__all__ = ["PopulationBuffer", "select_parent_indices", "breed"]


def _offsets_from(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    if lengths.shape[0] > 1:
        np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


class PopulationBuffer:
    """One generation's population as a structure of arrays.

    Attributes
    ----------
    genes:
        Read-only contiguous ``float64`` arena holding every genome
        back-to-back; row *i* occupies ``genes[offsets[i] : offsets[i] +
        lengths[i]]``.
    offsets / lengths:
        ``int64`` index arrays into the arena.
    total / goal / cost:
        Per-row fitness components (``cost`` is the cost *fitness*
        ``1/(1+cost)``, matching :class:`~repro.core.fitness.
        FitnessResult`); NaN until evaluated.
    goal_reached / evaluated:
        Boolean flags per row.
    dirty_from:
        First gene that differs from the prefix plan's genome (``-1`` when
        no incremental-decode hint is available), paired with
        ``prefix_plans``.
    plans:
        Decoded phenotype per evaluated row, or ``None`` when the evaluator
        skipped shipping plans (shared-memory dispatch with
        ``keep_plans=False``).
    keep_plans:
        Whether evaluators must populate ``plans``.  Required by the
        state-matching crossovers (they read parents' ``match_keys``); the
        random crossover leaves it off so shared-memory dispatch can return
        packed fitness arrays only.
    """

    __slots__ = (
        "n",
        "genes",
        "offsets",
        "lengths",
        "total",
        "goal",
        "cost",
        "goal_reached",
        "evaluated",
        "dirty_from",
        "plans",
        "prefix_plans",
        "keep_plans",
    )

    def __init__(
        self,
        genes: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        keep_plans: bool = True,
    ) -> None:
        genes = np.ascontiguousarray(genes, dtype=np.float64)
        if genes.flags.writeable:
            genes.setflags(write=False)
        n = int(lengths.shape[0])
        self.n = n
        self.genes = genes
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.total = np.full(n, np.nan, dtype=np.float64)
        self.goal = np.full(n, np.nan, dtype=np.float64)
        self.cost = np.full(n, np.nan, dtype=np.float64)
        self.goal_reached = np.zeros(n, dtype=bool)
        self.evaluated = np.zeros(n, dtype=bool)
        self.dirty_from = np.full(n, -1, dtype=np.int64)
        self.plans: List[Optional[object]] = [None] * n
        self.prefix_plans: List[Optional[object]] = [None] * n
        self.keep_plans = bool(keep_plans)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_individuals(
        cls, population: Sequence[Individual], keep_plans: bool = True
    ) -> "PopulationBuffer":
        """Pack a list of individuals, preserving evaluation state and hints."""
        if not population:
            raise ValueError("population is empty")
        lengths = np.fromiter((len(ind) for ind in population), np.int64, len(population))
        offsets = _offsets_from(lengths)
        arena = np.empty(int(lengths.sum()), dtype=np.float64)
        for ind, o, length in zip(population, offsets, lengths):
            arena[o : o + length] = ind.genes
        buf = cls(arena, offsets, lengths, keep_plans=keep_plans)
        for i, ind in enumerate(population):
            if ind.is_evaluated:
                buf.set_result(i, ind.decoded, ind.fitness)
            elif ind.prefix_plan is not None and ind.dirty_from is not None:
                buf.prefix_plans[i] = ind.prefix_plan
                buf.dirty_from[i] = int(ind.dirty_from)
        return buf

    # -- row access ----------------------------------------------------------

    def view(self, i: int) -> np.ndarray:
        """Read-only zero-copy view of row *i*'s genome."""
        o = self.offsets[i]
        return self.genes[o : o + self.lengths[i]]

    def prefix_hint(self, i: int):
        """``(prefix_plan, dirty_from)`` for the decode engine (None, None if absent)."""
        prefix = self.prefix_plans[i]
        if prefix is None:
            return None, None
        dirty = int(self.dirty_from[i])
        return (prefix, dirty) if dirty >= 0 else (None, None)

    def pending_hints(self):
        """``(pending, hints)``: unevaluated row indices plus resume hints.

        ``pending`` is the int array of rows with ``evaluated`` unset (in
        row order) and ``hints[j]`` is row ``pending[j]``'s
        ``(prefix_plan, dirty_from)`` pair, or ``None`` when the row has
        no usable hint — exactly the shape
        :meth:`~repro.core.vector_decode.VectorDecoder.decode_rows`
        consumes, so whole-population decoders gather their work list in
        one call.
        """
        pending = np.flatnonzero(~self.evaluated)
        hints = []
        for i in pending:
            plan, dirty = self.prefix_hint(int(i))
            hints.append((plan, dirty) if plan is not None else None)
        return pending, hints

    def fitness_result(self, i: int) -> FitnessResult:
        """Rebuild the row's :class:`FitnessResult` from the packed arrays."""
        return FitnessResult(
            goal=float(self.goal[i]),
            cost=float(self.cost[i]),
            total=float(self.total[i]),
            goal_reached=bool(self.goal_reached[i]),
        )

    def set_result(self, i: int, decoded, fitness) -> None:
        """Record row *i*'s evaluation (plan may be None under shm dispatch)."""
        self.plans[i] = decoded
        self.total[i] = fitness.total
        self.goal[i] = fitness.goal
        self.cost[i] = fitness.cost
        self.goal_reached[i] = fitness.goal_reached
        self.evaluated[i] = True
        self.prefix_plans[i] = None
        self.dirty_from[i] = -1

    def materialize(self, i: int) -> Individual:
        """Row *i* as an :class:`Individual` (genes shared with the arena)."""
        genes = self.view(i)
        if self.evaluated[i]:
            return Individual(
                genes=genes, decoded=self.plans[i], fitness=self.fitness_result(i)
            )
        prefix, dirty = self.prefix_hint(i)
        if prefix is not None:
            return Individual(genes=genes, dirty_from=dirty, prefix_plan=prefix)
        return Individual(genes=genes)

    def to_individuals(self) -> List[Individual]:
        """The whole population as a list (checkpoints, migration, tests)."""
        return [self.materialize(i) for i in range(self.n)]

    def best_index(self) -> int:
        """First row attaining the lexicographic ``(goal, total)`` maximum.

        Matches ``max(population, key=Individual.sort_key)`` exactly:
        Python's ``max`` keeps the first of equal maxima.
        """
        if not self.evaluated.all():
            raise ValueError("population has not been evaluated")
        best_goal = self.goal.max()
        mask = self.goal == best_goal
        best_total = self.total[mask].max()
        return int(np.flatnonzero(mask & (self.total == best_total))[0])

    # -- subset/concat (island migration) ------------------------------------

    def take(self, rows: np.ndarray) -> "PopulationBuffer":
        """A new buffer holding copies of the selected rows, in order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.lengths[rows].copy()
        offsets = _offsets_from(lengths)
        arena = np.empty(int(lengths.sum()), dtype=np.float64)
        for j, r in enumerate(rows):
            arena[offsets[j] : offsets[j] + lengths[j]] = self.view(int(r))
        out = PopulationBuffer(arena, offsets, lengths, keep_plans=self.keep_plans)
        out.total[:] = self.total[rows]
        out.goal[:] = self.goal[rows]
        out.cost[:] = self.cost[rows]
        out.goal_reached[:] = self.goal_reached[rows]
        out.evaluated[:] = self.evaluated[rows]
        out.dirty_from[:] = self.dirty_from[rows]
        out.plans = [self.plans[int(r)] for r in rows]
        out.prefix_plans = [self.prefix_plans[int(r)] for r in rows]
        return out

    @staticmethod
    def concatenate(parts: Sequence["PopulationBuffer"]) -> "PopulationBuffer":
        """Stack buffers into one (rows keep their order within and across parts)."""
        if not parts:
            raise ValueError("nothing to concatenate")
        lengths = np.concatenate([p.lengths for p in parts])
        offsets = _offsets_from(lengths)
        arena = np.concatenate([p.genes for p in parts])
        out = PopulationBuffer(
            arena, offsets, lengths, keep_plans=parts[0].keep_plans
        )
        out.total[:] = np.concatenate([p.total for p in parts])
        out.goal[:] = np.concatenate([p.goal for p in parts])
        out.cost[:] = np.concatenate([p.cost for p in parts])
        out.goal_reached[:] = np.concatenate([p.goal_reached for p in parts])
        out.evaluated[:] = np.concatenate([p.evaluated for p in parts])
        out.dirty_from[:] = np.concatenate([p.dirty_from for p in parts])
        out.plans = [plan for p in parts for plan in p.plans]
        out.prefix_plans = [plan for p in parts for plan in p.prefix_plans]
        return out


# -- the generation step -----------------------------------------------------


class _ChildRec:
    """Recipe for one offspring row: source segments + mutation scatter.

    The breeding loop only records *what* to copy; the arena is allocated
    and filled once at the end, so no intermediate arrays or Individuals
    are built.  ``inherit`` names the parent row whose evaluation the child
    keeps (an unmutated clone), ``-1`` otherwise.
    """

    __slots__ = (
        "src1",
        "start1",
        "take1",
        "src2",
        "start2",
        "take2",
        "length",
        "inherit",
        "prefix",
        "dirty",
        "mut_idx",
        "mut_vals",
    )

    def __init__(self) -> None:
        self.src2 = -1
        self.start2 = 0
        self.take2 = 0
        self.inherit = -1
        self.prefix = None
        self.dirty = -1
        self.mut_idx = None
        self.mut_vals = None


def _clone(buffer: PopulationBuffer, src: int) -> _ChildRec:
    rec = _ChildRec()
    rec.src1 = src
    rec.start1 = 0
    rec.take1 = rec.length = int(buffer.lengths[src])
    rec.inherit = src
    rec.prefix = buffer.plans[src]
    return rec


def _splice(
    buffer: PopulationBuffer,
    a: int,
    b: int,
    cut1: int,
    cut2: int,
    max_len: Optional[int],
) -> _ChildRec:
    """The child ``a[:cut1] + b[cut2:]``.

    Clips to ``max_len``, falls back to a copy of parent *a* when the
    splice is empty (genomes are non-empty), and carries parent *a*'s
    decoded plan as the prefix hint with ``dirty_from = min(cut1, length)``:
    the child's first ``cut1`` genes are *a*'s own, so the decoder can
    resume from *a*'s walk.
    """
    length2 = int(buffer.lengths[b])
    raw = cut1 + (length2 - cut2)
    length = raw if max_len is None else min(raw, max_len)
    if length == 0:
        return _clone(buffer, a)
    rec = _ChildRec()
    rec.src1 = a
    rec.start1 = 0
    rec.take1 = min(cut1, length)
    rec.src2 = b
    rec.start2 = cut2
    rec.take2 = length - rec.take1
    rec.length = length
    prefix = buffer.plans[a]
    if prefix is not None and cut1 > 0:
        rec.prefix = prefix
        rec.dirty = min(cut1, length)
    return rec


def _mutate_record(rec: _ChildRec, rate: float, rng: np.random.Generator) -> None:
    """Draw one child's uniform-reset mutation onto its recipe.

    The lineage rules match :func:`repro.core.mutation._mutated_child`: an
    evaluated clone's decoded plan becomes the prefix; an offspring's
    pending hint is tightened to the first changed gene; a change at gene 0
    (or a missing prefix) drops the hint.
    """
    if rate == 0.0:
        return
    drawn = sample_uniform_reset(rec.length, rate, rng)
    if drawn is None:
        return
    rec.mut_idx, rec.mut_vals = drawn
    first = int(rec.mut_idx[0])
    if rec.inherit >= 0:
        prefix, dirty = rec.prefix, first
        rec.inherit = -1
    elif rec.prefix is not None and rec.dirty >= 0:
        prefix, dirty = rec.prefix, min(rec.dirty, first)
    else:
        prefix, dirty = None, 0
    if prefix is None or dirty <= 0:
        rec.prefix, rec.dirty = None, -1
    else:
        rec.prefix, rec.dirty = prefix, min(dirty, rec.length)


def select_parent_indices(
    buffer: PopulationBuffer, config, rng: np.random.Generator
) -> np.ndarray:
    """Tournament-select ``population_size`` parent rows (batched draw)."""
    if buffer.n == 0:
        raise ValueError("population is empty")
    if not buffer.evaluated.all():
        raise ValueError("selection requires an evaluated population")
    return tournament_winner_indices(
        buffer.total, config.population_size, rng, config.tournament_size
    )


def breed(
    buffer: PopulationBuffer,
    parent_idx: np.ndarray,
    config,
    rng: np.random.Generator,
) -> PopulationBuffer:
    """One generation of variation on the arrays.

    Elites first; then parents are paired ``(i, i+1)`` with wraparound, each
    pair crosses over with probability ``crossover_rate`` (else both are
    copied), and every child is mutated; the second child of the final pair
    is dropped *after* its sibling's mutation when the population fills on
    an odd count.
    """
    rate = config.mutation_rate
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
    n_out = config.population_size
    kind = config.crossover
    max_len = config.max_len
    records: List[_ChildRec] = []
    if config.elitism:
        # Stable descending order matches sorted(..., reverse=True): ties
        # keep their population order.
        order = np.argsort(-buffer.total, kind="stable")
        for e in order[: config.elitism]:
            records.append(_clone(buffer, int(e)))
    lengths = buffer.lengths
    plans = buffer.plans
    n_par = int(parent_idx.shape[0])
    i = 0
    while len(records) < n_out:
        a = int(parent_idx[i % n_par])
        b = int(parent_idx[(i + 1) % n_par])
        i += 2
        if rng.random() < config.crossover_rate:
            cuts = sample_crossover_cuts(
                kind,
                int(lengths[a]),
                int(lengths[b]),
                None if kind == "random" else plans[a],
                None if kind == "random" else plans[b],
                rng,
            )
            if cuts is None:
                pair = (_clone(buffer, a), _clone(buffer, b))
            else:
                cut1, cut2 = cuts
                pair = (
                    _splice(buffer, a, b, cut1, cut2, max_len),
                    _splice(buffer, b, a, cut2, cut1, max_len),
                )
        else:
            pair = (_clone(buffer, a), _clone(buffer, b))
        for rec in pair:
            _mutate_record(rec, rate, rng)
            records.append(rec)
            if len(records) >= n_out:
                break
    return _materialize_generation(buffer, records)


def _materialize_generation(
    buffer: PopulationBuffer, records: List[_ChildRec]
) -> PopulationBuffer:
    """Build the offspring buffer: slice copies + one mutation scatter."""
    n = len(records)
    lengths = np.fromiter((r.length for r in records), np.int64, n)
    offsets = _offsets_from(lengths)
    arena = np.empty(int(lengths.sum()), dtype=np.float64)
    src_genes = buffer.genes
    src_off = buffer.offsets
    mut_idx: List[np.ndarray] = []
    mut_vals: List[np.ndarray] = []
    for j, rec in enumerate(records):
        o = int(offsets[j])
        s1 = int(src_off[rec.src1]) + rec.start1
        arena[o : o + rec.take1] = src_genes[s1 : s1 + rec.take1]
        if rec.take2 > 0:
            s2 = int(src_off[rec.src2]) + rec.start2
            arena[o + rec.take1 : o + rec.length] = src_genes[s2 : s2 + rec.take2]
        if rec.mut_idx is not None:
            mut_idx.append(rec.mut_idx + o)
            mut_vals.append(rec.mut_vals)
    if mut_idx:
        arena[np.concatenate(mut_idx)] = np.concatenate(mut_vals)
    out = PopulationBuffer(arena, offsets, lengths, keep_plans=buffer.keep_plans)
    for j, rec in enumerate(records):
        if rec.inherit >= 0:
            src = rec.inherit
            out.total[j] = buffer.total[src]
            out.goal[j] = buffer.goal[src]
            out.cost[j] = buffer.cost[src]
            out.goal_reached[j] = buffer.goal_reached[src]
            out.evaluated[j] = True
            out.plans[j] = buffer.plans[src]
        elif rec.prefix is not None and rec.dirty >= 0:
            out.prefix_plans[j] = rec.prefix
            out.dirty_from[j] = rec.dirty
    return out
