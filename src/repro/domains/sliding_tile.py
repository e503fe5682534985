"""Sliding-tile puzzle planning domain (paper, Section 4.2).

An ``n × n`` board holds ``n²-1`` numbered tiles and one blank; a move
slides a tile adjacent to the blank into the blank.  The paper's goal
fitness (equation 6) is based on the total Manhattan distance of all tiles
from their goal positions, normalised by the upper bound ``D·T`` where
``D = 2(n-1)`` is the longest distance a single tile may need to move and
``T = n²-1`` is the number of tiles:

    goal_fitness(s) = 1 - manhattan(s, goal) / (D · T)

Solvability follows Johnson & Story (1879): a configuration is reachable
from the goal iff it is an even permutation, adjusted for the blank's row on
even-width boards.

State representation: a flat tuple of length ``n²`` in row-major order, with
``0`` denoting the blank; the goal is ``(1, 2, ..., n²-1, 0)``.  The state
key is that tuple packed one byte per cell into a Python int,
``int.from_bytes(bytes(state), "little")`` — the same int the kernel
computes from its ``uint8`` board rows, so boards go up to 16×16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.domains.kernels import cached_kernel, grow, intern_rows
from repro.protocol import DomainKernel, PlanningDomain

__all__ = [
    "TileMove",
    "SlidingTileDomain",
    "TileKernel",
    "manhattan_distance",
    "is_solvable",
    "reversed_start",
    "random_solvable_start",
    "tile_init_length",
    "tile_max_len",
]

#: Slide directions: the *blank* moves this way (the tile moves opposite).
#: Fixed order — the decoder's gene→op mapping depends on it.
DIRECTIONS = (("up", -1, 0), ("down", 1, 0), ("left", 0, -1), ("right", 0, 1))


@dataclass(frozen=True)
class TileMove:
    """Slide the tile adjacent to the blank in *direction* into the blank.

    Direction names the blank's motion: ``"up"`` means the blank swaps with
    the tile above it.
    """

    direction: str

    def __str__(self) -> str:
        return f"slide({self.direction})"


_MOVES = {name: TileMove(name) for name, _, _ in DIRECTIONS}


def goal_tuple(n: int) -> tuple:
    """The canonical goal ``(1, ..., n²-1, 0)``."""
    return tuple(range(1, n * n)) + (0,)


def tile_max_len(n: int) -> int:
    """MaxLen for the n×n tile GA: ``2 n^4``."""
    return 2 * n**4


def tile_init_length(n: int) -> int:
    """Initial individual size ``n² · log2(n²)`` (paper, Section 4.2)."""
    t = n * n
    return max(1, int(round(t * math.log2(t))))


def reversed_start(n: int) -> tuple:
    """The paper's Figure 3(a) start: blank first, tiles in descending order.

    With the blank top-left and tiles ``n²-1 .. 1``, the configuration is an
    even permutation of the canonical goal for every board size (verified by
    :func:`is_solvable` in tests) — the blank-last variant would be
    unsolvable on even-width boards.
    """
    return (0,) + tuple(range(n * n - 1, 0, -1))


def manhattan_distance(state: Sequence[int], goal: Sequence[int], n: int) -> int:
    """Total Manhattan distance of all tiles (blank excluded)."""
    goal_pos = {tile: divmod(i, n) for i, tile in enumerate(goal)}
    dist = 0
    for i, tile in enumerate(state):
        if tile == 0:
            continue
        r, c = divmod(i, n)
        gr, gc = goal_pos[tile]
        dist += abs(r - gr) + abs(c - gc)
    return dist


def _inversions(perm: Sequence[int]) -> int:
    """Inversion count of the tile sequence with the blank removed."""
    tiles = [t for t in perm if t != 0]
    inv = 0
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            if tiles[i] > tiles[j]:
                inv += 1
    return inv


def is_solvable(state: Sequence[int], n: int, goal: Optional[Sequence[int]] = None) -> bool:
    """Johnson–Story solvability test relative to *goal* (default canonical).

    Odd board width: reachable iff the inversion parities match.  Even board
    width: the invariant is ``inversions + row_of_blank`` parity.
    """
    if sorted(state) != list(range(n * n)):
        raise ValueError(f"state is not a permutation of 0..{n * n - 1}: {state}")
    if goal is None:
        goal = goal_tuple(n)

    def invariant(perm: Sequence[int]) -> int:
        inv = _inversions(perm)
        if n % 2 == 0:
            blank_row = list(perm).index(0) // n
            inv += blank_row
        return inv % 2

    return invariant(state) == invariant(goal)


class SlidingTileDomain(PlanningDomain):
    """The n×n sliding-tile puzzle as a GA-plannable domain."""

    def __init__(
        self,
        n: int,
        initial: Optional[Sequence[int]] = None,
        goal: Optional[Sequence[int]] = None,
        check_solvable: bool = True,
    ) -> None:
        if not 2 <= n <= 16:
            raise ValueError(f"board must be 2×2 to 16×16 (a byte per cell), got n={n}")
        self.n = n
        self._goal = tuple(goal) if goal is not None else goal_tuple(n)
        self._initial = tuple(initial) if initial is not None else reversed_start(n)
        for label, s in (("initial", self._initial), ("goal", self._goal)):
            if sorted(s) != list(range(n * n)):
                raise ValueError(f"{label} state is not a permutation of 0..{n * n - 1}")
        if check_solvable and not is_solvable(self._initial, n, self._goal):
            raise ValueError(
                "initial state is not reachable from the goal "
                "(odd permutation; see Johnson & Story 1879)"
            )
        self.name = f"tile-{n}x{n}"
        self._goal_pos = {tile: divmod(i, n) for i, tile in enumerate(self._goal)}
        # Upper bound on the distance between any two states: D·T with
        # D = 2(n-1) the longest single-tile distance, T = n²-1 tiles.
        self.distance_bound = 2 * (n - 1) * (n * n - 1)

    # -- PlanningDomain ------------------------------------------------------

    @property
    def initial_state(self) -> tuple:
        return self._initial

    @property
    def goal_state(self) -> tuple:
        return self._goal

    @property
    def tile_count(self) -> int:
        return self.n * self.n - 1

    def valid_operations(self, state) -> Sequence[TileMove]:
        n = self.n
        blank = state.index(0)
        r, c = divmod(blank, n)
        ops = []
        for name, dr, dc in DIRECTIONS:
            if 0 <= r + dr < n and 0 <= c + dc < n:
                ops.append(_MOVES[name])
        return ops

    def apply(self, state, op: TileMove) -> tuple:
        n = self.n
        blank = state.index(0)
        r, c = divmod(blank, n)
        for name, dr, dc in DIRECTIONS:
            if name == op.direction:
                nr, nc = r + dr, c + dc
                break
        else:  # pragma: no cover - op constructed outside DIRECTIONS
            raise ValueError(f"unknown direction {op.direction!r}")
        if not (0 <= nr < n and 0 <= nc < n):
            raise ValueError(f"move {op} is invalid: blank at ({r}, {c})")
        other = nr * n + nc
        board = list(state)
        board[blank], board[other] = board[other], board[blank]
        return tuple(board)

    def manhattan(self, state) -> int:
        dist = 0
        n = self.n
        for i, tile in enumerate(state):
            if tile == 0:
                continue
            r, c = divmod(i, n)
            gr, gc = self._goal_pos[tile]
            dist += abs(r - gr) + abs(c - gc)
        return dist

    def goal_fitness(self, state) -> float:
        """Paper's equation 6: 1 - manhattan / (D·T)."""
        return 1.0 - self.manhattan(state) / self.distance_bound

    def is_goal(self, state) -> bool:
        return state == self._goal

    def state_key(self, state) -> int:
        """The board packed one byte per cell into an int (little-endian)."""
        return int.from_bytes(bytes(state), "little")

    def decode_key(self, state) -> Hashable:
        """Gene→operation mapping depends only on the blank position.

        From equal blank positions, identical gene suffixes decode to
        identical move sequences (the blank trajectories stay in lockstep),
        which is exactly the paper's state-match condition — so matching on
        the blank position alone is sound and makes matches abundant.
        """
        return state.index(0)

    def kernel(self) -> "TileKernel":
        """Lazy packed-board kernel (any board size)."""
        return cached_kernel(self, TileKernel)


class TileKernel(DomainKernel):
    """Packed-board kernel for the sliding tile: lazy, vectorised expansion.

    States intern to rows of a ``uint8`` board matrix.  Each state's one
    Python object is its packed int key (:func:`~repro.domains.kernels.
    intern_rows`): the index dict maps it to the id, and the id-indexed
    ``_keys`` list hands that same object out as the state key, so the
    decoder's memo and every plan share it.  Ints are GC-untrackable,
    unlike tuples, so the hundreds of thousands of keys a tile4 run keeps
    add nothing to cyclic-GC scans.  The valid-operation *count* and goal
    arrays are filled at intern time from the blank position alone;
    successors materialise in bulk only for the ``(state, slot)`` pairs
    genes actually select, via row copies and a vectorised Manhattan
    recomputation — no per-state Python in the steady state.
    """

    def __init__(self, domain: SlidingTileDomain, max_states: int = 400_000) -> None:
        self.domain = domain
        self.max_ops = 4
        self.unit_cost = True
        self.epoch = 0
        self.max_states = max_states
        n = domain.n
        self._n = n
        cells = n * n
        self._cells = cells
        # Per blank position b: the valid directions in DIRECTIONS order,
        # their count, and the target cell of each slot.
        self._k_of_blank = np.zeros(cells, dtype=np.int32)
        self._slot_target = np.full((cells, 4), -1, dtype=np.int32)
        ops_of_blank = []
        for b in range(cells):
            r, c = divmod(b, n)
            k = 0
            ops = []
            for name, dr, dc in DIRECTIONS:
                if 0 <= r + dr < n and 0 <= c + dc < n:
                    self._slot_target[b, k] = (r + dr) * n + (c + dc)
                    ops.append(_MOVES[name])
                    k += 1
            self._k_of_blank[b] = k
            ops_of_blank.append(tuple(ops))
        self._ops_of_blank = tuple(ops_of_blank)
        # Goal row/col per tile value (tile 0 masked out of the distance).
        self._goal_r = np.zeros(cells, dtype=np.int64)
        self._goal_c = np.zeros(cells, dtype=np.int64)
        for pos, tile in enumerate(domain.goal_state):
            self._goal_r[tile], self._goal_c[tile] = divmod(pos, n)
        self._cell_r = np.arange(cells, dtype=np.int64) // n
        self._cell_c = np.arange(cells, dtype=np.int64) % n
        self._goal_board = np.asarray(domain.goal_state, dtype=np.uint8)
        self._distance_bound = domain.distance_bound
        self._init_tables()

    def _init_tables(self) -> None:
        cap = 1024
        self._ids: dict = {}  # packed int key -> id
        self._keys: list = []  # id -> packed int key
        self._boards = np.zeros((cap, self._cells), dtype=np.uint8)
        self._blank = np.zeros(cap, dtype=np.int32)
        self._vc = np.zeros(cap, dtype=np.int32)
        self._succ = np.full((cap, 4), -1, dtype=np.int32)
        self._gfit = np.zeros(cap, dtype=np.float64)
        self._gmask = np.zeros(cap, dtype=bool)

    # -- DomainKernel surface -------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self._keys)

    @property
    def valid_count(self) -> np.ndarray:
        return self._vc

    @property
    def succ(self) -> np.ndarray:
        return self._succ

    @property
    def goal_fit(self) -> np.ndarray:
        return self._gfit

    @property
    def goal_mask(self) -> np.ndarray:
        return self._gmask

    @property
    def overflowed(self) -> bool:
        return len(self._keys) > self.max_states

    def reset(self) -> None:
        self._init_tables()
        self.epoch += 1

    def intern(self, state) -> int:
        board = np.asarray(state, dtype=np.uint8)
        return int(intern_rows(self._ids, self._keys, board[None, :], self._admit)[0])

    def id_for_key(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def _admit(self, new_boards: np.ndarray) -> None:
        """Append a block of distinct boards, computing their row data."""
        needed = len(self._keys)
        start = needed - new_boards.shape[0]
        self._boards = grow(self._boards, needed)
        self._blank = grow(self._blank, needed)
        self._vc = grow(self._vc, needed)
        self._succ = grow(self._succ, needed, fill=-1)
        self._gfit = grow(self._gfit, needed)
        self._gmask = grow(self._gmask, needed)
        sl = slice(start, needed)
        self._boards[sl] = new_boards
        blank = np.argmin(new_boards, axis=1)
        self._blank[sl] = blank
        self._vc[sl] = self._k_of_blank[blank]
        self._succ[sl] = -1
        # Vectorised equation 6: positions of each tile vs its goal cell.
        # tile t sits at cell j  →  |r_j - gr_t| + |c_j - gc_t|, blank masked.
        tiles = new_boards.astype(np.int64)
        dist = (
            np.abs(self._cell_r[None, :] - self._goal_r[tiles])
            + np.abs(self._cell_c[None, :] - self._goal_c[tiles])
        )
        dist[tiles == 0] = 0
        manhattan = dist.sum(axis=1)
        self._gfit[sl] = 1.0 - manhattan / np.float64(self._distance_bound)
        self._gmask[sl] = (new_boards == self._goal_board[None, :]).all(axis=1)

    def fill_transitions(self, ids, slots) -> None:
        # Dedup (id, slot) pairs: the same miss can appear on many rows.
        code = ids.astype(np.int64) * 4 + slots
        code = np.unique(code)
        uids = code // 4
        uslots = code % 4
        fresh = self._succ[uids, uslots] < 0
        uids, uslots = uids[fresh], uslots[fresh]
        if uids.size == 0:
            return
        src = self._boards[uids].copy()
        blank = self._blank[uids].astype(np.int64)
        target = self._slot_target[blank, uslots].astype(np.int64)
        rows = np.arange(uids.size)
        src[rows, blank] = src[rows, target]
        src[rows, target] = 0
        nids = intern_rows(self._ids, self._keys, src, self._admit)
        # Admitting new boards may reallocate the tables; index fresh.
        self._succ[uids, uslots] = nids

    # -- reconstruction -------------------------------------------------------

    def state_of(self, sid: int) -> tuple:
        return tuple(self._boards[sid].tolist())

    def state_key_of(self, sid: int) -> int:
        return self._keys[sid]

    def decode_key_of(self, sid: int) -> Hashable:
        return int(self._blank[sid])

    def state_keys_of(self, sids) -> list:
        return list(map(self._keys.__getitem__, np.asarray(sids, dtype=np.int64).tolist()))

    def decode_keys_of(self, sids) -> list:
        return self._blank[np.asarray(sids, dtype=np.int64)].tolist()

    def operations_of(self, sid: int) -> Sequence[TileMove]:
        return self._ops_of_blank[int(self._blank[sid])]


def random_solvable_start(
    n: int, rng: np.random.Generator, goal: Optional[Sequence[int]] = None
) -> tuple:
    """A uniformly random permutation, re-drawn until solvable.

    Exactly half of all permutations are solvable, so this terminates after
    two draws in expectation.
    """
    if goal is None:
        goal = goal_tuple(n)
    while True:
        perm = tuple(int(x) for x in rng.permutation(n * n))
        if is_solvable(perm, n, goal):
            return perm
