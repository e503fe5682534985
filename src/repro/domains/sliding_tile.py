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
key is that tuple packed into a Python int, 4 bits per cell up to 4×4 —
the kernel's board word, so a key *is* a kernel code — and a byte per
cell on larger boards, which go up to 16×16 and decode on the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.domains.kernels import cached_kernel
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
        """``slide(up)`` style."""
        return f"slide({self.direction})"


_MOVES = {name: TileMove(name) for name, _, _ in DIRECTIONS}
_MOVE_ARRAY = np.array([_MOVES[name] for name, _, _ in DIRECTIONS], dtype=object)

#: Widest board the kernel's 64-bit word holds (16 cells × 4 bits).
_MAX_KERNEL_N = 4


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
        """The start board."""
        return self._initial

    @property
    def goal_state(self) -> tuple:
        """The goal board."""
        return self._goal

    @property
    def tile_count(self) -> int:
        """``n² - 1``."""
        return self.n * self.n - 1

    def valid_operations(self, state) -> Sequence[TileMove]:
        """Blank moves that stay on the board, in ``DIRECTIONS`` order."""
        n = self.n
        blank = state.index(0)
        r, c = divmod(blank, n)
        ops = []
        for name, dr, dc in DIRECTIONS:
            if 0 <= r + dr < n and 0 <= c + dc < n:
                ops.append(_MOVES[name])
        return ops

    def apply(self, state, op: TileMove) -> tuple:
        """Swap the blank with the tile in ``op.direction``."""
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
        """Total Manhattan distance of all tiles from their goal cells."""
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
        """The board equals the goal board."""
        return state == self._goal

    def state_key(self, state) -> int:
        """The board packed into an int, cell ``i`` at bit ``4i``.

        On boards up to 4×4 this is the kernel's board word; larger boards
        pack a byte per cell (cell ``i`` at bit ``8i``).
        """
        if self.n > _MAX_KERNEL_N:
            return int.from_bytes(bytes(state), "little")
        # Cells < 16 print as "0x" hex pairs; the low digits, last cell
        # first, read as one hex number put cell i at bit 4i.
        return int(bytes(state).hex()[::-2], 16)

    def decode_key(self, state) -> Hashable:
        """Gene→operation mapping depends only on the blank position.

        From equal blank positions, identical gene suffixes decode to
        identical move sequences (the blank trajectories stay in lockstep),
        which is exactly the paper's state-match condition — so matching on
        the blank position alone is sound and makes matches abundant.
        """
        return state.index(0)

    def kernel(self) -> Optional["TileKernel"]:
        """The board-word kernel (None above 4×4)."""
        if self.n > _MAX_KERNEL_N:
            return None
        return cached_kernel(self, TileKernel)


class TileKernel(DomainKernel):
    """Sliding-tile kernel on the board word: 4 bits per cell, no state tables.

    A state's code is its board packed 4 bits per cell into one
    ``uint64`` (cell ``i`` at bits ``4i .. 4i+3``), which is also the
    domain's state key, so boards up to 4×4 fit.  Every question is
    arithmetic on that word.  The blank is the one zero nibble, found by
    a SWAR zero-nibble test; a move XORs the tile out of its cell and
    into the blank's; the goal test is one comparison; and goal fitness
    sums an exact integer Manhattan distance per cell, fed to equation 6
    as ``1.0 - m / float64(bound)``, the same arithmetic as the domain.
    """

    code_dtype = "uint64"

    def __init__(self, domain: SlidingTileDomain) -> None:
        n = domain.n
        if n > _MAX_KERNEL_N:
            raise ValueError(f"a {n}x{n} board does not fit the 64-bit board word")
        self.domain = domain
        cells = n * n
        self._cells = cells
        # Per blank position b: the valid directions in DIRECTIONS order,
        # their count, and each slot's target cell (as a shift) and move.
        self._k_of_blank = np.zeros(cells, dtype=np.int64)
        self._target_shift = np.zeros((cells, 4), dtype=np.uint64)
        self._move_of = np.zeros((cells, 4), dtype=np.int64)
        for b in range(cells):
            r, c = divmod(b, n)
            k = 0
            for d, (_, dr, dc) in enumerate(DIRECTIONS):
                if 0 <= r + dr < n and 0 <= c + dc < n:
                    self._target_shift[b, k] = 4 * ((r + dr) * n + (c + dc))
                    self._move_of[b, k] = d
                    k += 1
            self._k_of_blank[b] = k
        self._blank_shift = 4 * np.arange(cells, dtype=np.uint64)
        # SWAR constants; the nibbles above the board are filled with 1s
        # so that only the blank reads as a zero nibble.
        self._low = np.uint64(0x1111_1111_1111_1111)
        self._high = np.uint64(0x8888_8888_8888_8888)
        self._fill = np.uint64(sum(1 << (4 * i) for i in range(cells, 16)))
        # dist[t, i]: Manhattan distance of tile t from its goal when on
        # cell i (0 for the blank).
        goal_pos = {tile: divmod(i, n) for i, tile in enumerate(domain.goal_state)}
        self._dist = np.zeros((16, cells), dtype=np.int64)
        for t in range(1, cells):
            gr, gc = goal_pos[t]
            for i in range(cells):
                r, c = divmod(i, n)
                self._dist[t, i] = abs(r - gr) + abs(c - gc)
        self._goal = np.uint64(domain.state_key(domain.goal_state))
        self._bound = np.float64(domain.distance_bound)
        # The scalar step's constants, as Python ints: the SWAR words, the
        # goal word, and per blank cell (keyed by the blank's SWAR bit) its
        # nibble shift and the target shifts of its valid slots.
        self._scalar = (
            int(self._fill),
            int(self._low),
            int(self._high),
            int(self._goal),
            {
                1 << (4 * b + 3): (4 * b, tuple(self._target_shift[b, :k].tolist()))
                for b, k in enumerate(self._k_of_blank.tolist())
            },
        )

    def _blank(self, codes) -> np.ndarray:
        """Blank cell per code: the lowest zero nibble, by SWAR."""
        x = codes | self._fill
        t = (x - self._low) & ~x & self._high  # exact at the lowest zero
        lowest = t & (~t + np.uint64(1))  # 1 << (4 * blank + 3)
        _, e = np.frexp(lowest.astype(np.float64))
        return (e >> 2) - 1

    # -- DomainKernel surface -------------------------------------------------

    def code_of_key(self, key: Hashable) -> int:
        """The state key is the board word."""
        return key

    def valid_count(self, codes) -> np.ndarray:
        """2, 3 or 4 moves, by the blank's cell."""
        return self._k_of_blank[self._blank(codes)]

    def advance(self, codes, idx) -> np.ndarray:
        """Slide: the target cell's tile moves into the blank nibble."""
        blank = self._blank(codes)
        shift = self._target_shift[blank, idx]
        tile = (codes >> shift) & np.uint64(15)
        return codes ^ (tile << shift) ^ (tile << self._blank_shift[blank])

    def goal_mask(self, codes) -> np.ndarray:
        """One comparison with the goal word."""
        return codes == self._goal

    def goal_fit(self, codes) -> np.ndarray:
        """Equation 6 from the exact per-cell Manhattan sum."""
        m = np.zeros(codes.shape, dtype=np.int64)
        for i in range(self._cells):
            m += self._dist[(codes >> self._blank_shift[i]) & np.uint64(15), i]
        return 1.0 - m / self._bound

    def step(self, code: int, gene: float):
        """One gene on the board word: the same SWAR blank and XOR slide."""
        fill, low, high, goal, moves = self._scalar
        x = code | fill
        t = (x - low) & ~x & high
        blank, targets = moves[t & -t]
        k = len(targets)
        slot = int(gene * k)
        if slot >= k:
            slot = k - 1
        shift = targets[slot]
        tile = (code >> shift) & 15
        code ^= (tile << shift) ^ (tile << blank)
        return slot, code, code == goal

    # -- reconstruction -------------------------------------------------------

    def state_of(self, code: int) -> tuple:
        """The board tuple, one nibble per cell."""
        return tuple((code >> (4 * i)) & 15 for i in range(self._cells))

    def state_keys_of(self, codes) -> list:
        """The codes themselves."""
        return codes.tolist()

    def decode_keys_of(self, codes) -> list:
        """The blank cells."""
        return self._blank(codes).tolist()

    def operations_of(self, codes, slots) -> list:
        """The domain's own :class:`TileMove` objects, by blank and slot."""
        return _MOVE_ARRAY[self._move_of[self._blank(codes), slots]].tolist()


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
