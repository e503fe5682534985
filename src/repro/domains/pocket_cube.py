"""The 2×2×2 Rubik's cube (Pocket Cube) planning domain.

Korf & Felner's disjoint-PDB paper (the paper's reference [9]) evaluates on
the sliding-tile puzzle *and* Rubik's cube; this domain adds the cube side
of that pair at the tractable 2×2×2 size (3,674,160 reachable states).

Cubie-level model (Kociemba conventions): eight corners, each with a
position (permutation index) and an orientation (0–2).  The DBL corner is
held fixed — only U, R and F face turns are generated, which never move it
— so whole-cube rotations are modded out and the solved state is unique.

State: ``(cp, co)`` — two 8-tuples (corner permutation and orientation).
Its key is one 40-bit int, the kernel's code: ``cp[i]`` at 3 bits from
bit ``3i``, ``co[i]`` at 2 bits from bit ``24 + 2i``.
Moves: U, U', U2, R, R', R2, F, F', F2 — all nine valid in every state, so
the gene→operation mapping is state-independent (``decode_key`` is
constant and state-aware crossover always finds matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.domains.kernels import cached_kernel
from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["CubeMove", "CubeKernel", "PocketCubeDomain", "scrambled_state"]

# Corner position indices (Kociemba): URF UFL ULB UBR DFR DLF DBL DRB.
_SOLVED_CP = (0, 1, 2, 3, 4, 5, 6, 7)
_SOLVED_CO = (0, 0, 0, 0, 0, 0, 0, 0)

# Quarter-turn tables: after move M, the corner now at position i came from
# position PERM[i], and its orientation increases by TWIST[i] (mod 3).
_BASE = {
    "U": ((3, 0, 1, 2, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0, 0)),
    "R": ((4, 1, 2, 0, 7, 5, 6, 3), (2, 0, 0, 1, 1, 0, 0, 2)),
    "F": ((1, 5, 2, 3, 0, 4, 6, 7), (1, 2, 0, 0, 2, 1, 0, 0)),
}


@dataclass(frozen=True)
class CubeMove:
    """One face turn: face in {U, R, F}, quarter turns in {1, 2, 3}."""

    face: str
    turns: int

    def __str__(self) -> str:
        """Singmaster notation: ``U``, ``U2``, ``U'``."""
        suffix = {1: "", 2: "2", 3: "'"}[self.turns]
        return f"{self.face}{suffix}"


#: Fixed move ordering for decode determinism.
MOVES = tuple(
    CubeMove(face, turns) for face in ("U", "R", "F") for turns in (1, 2, 3)
)


def _apply_quarter(state, face: str):
    cp, co = state
    perm, twist = _BASE[face]
    new_cp = tuple(cp[perm[i]] for i in range(8))
    new_co = tuple((co[perm[i]] + twist[i]) % 3 for i in range(8))
    return (new_cp, new_co)


def _apply_move(state, move: CubeMove):
    for _ in range(move.turns):
        state = _apply_quarter(state, move.face)
    return state


def scrambled_state(
    n_moves: int, rng: np.random.Generator
) -> Tuple[tuple, tuple]:
    """Apply *n_moves* random face turns to the solved cube."""
    state = (_SOLVED_CP, _SOLVED_CO)
    for _ in range(n_moves):
        state = _apply_move(state, MOVES[int(rng.integers(0, len(MOVES)))])
    return state


class PocketCubeDomain(PlanningDomain):
    """The Pocket Cube as a GA-plannable domain.

    Goal fitness: the fraction of the seven movable corners that are both
    correctly placed and correctly oriented (the fixed DBL corner is always
    correct and excluded), which is 1 exactly at the solved state.
    """

    def __init__(self, initial: Optional[Tuple[tuple, tuple]] = None) -> None:
        self._initial = initial if initial is not None else (_SOLVED_CP, _SOLVED_CO)
        cp, co = self._initial
        if sorted(cp) != list(range(8)):
            raise ValueError(f"corner permutation must be a permutation of 0..7, got {cp}")
        if len(co) != 8 or any(not 0 <= x <= 2 for x in co):
            raise ValueError(f"corner orientations must be eight values in 0..2, got {co}")
        if sum(co) % 3 != 0:
            raise ValueError("orientation sum must be divisible by 3 (unreachable state)")
        if cp[6] != 6 or co[6] != 0:
            raise ValueError(
                "the DBL corner (index 6) must stay fixed; rotate the "
                "whole-cube description so DBL is solved"
            )
        self.name = "pocket-cube"

    # -- PlanningDomain ------------------------------------------------------

    @property
    def initial_state(self):
        """The start ``(cp, co)``."""
        return self._initial

    def valid_operations(self, state) -> Sequence[CubeMove]:
        """All nine face turns, always."""
        return MOVES  # every face turn is always legal

    def apply(self, state, op: CubeMove):
        """The cube after the face turn *op*."""
        return _apply_move(state, op)

    def goal_fitness(self, state) -> float:
        """Placed-and-oriented movable corners over 7."""
        cp, co = state
        correct = sum(
            1 for i in range(8) if i != 6 and cp[i] == i and co[i] == 0
        )
        return correct / 7.0

    def is_goal(self, state) -> bool:
        """The solved cube."""
        return state == (_SOLVED_CP, _SOLVED_CO)

    def state_key(self, state) -> int:
        """The 40-bit cubie word: ``cp[i]`` at bit ``3i``, ``co[i]`` at ``24 + 2i``."""
        cp, co = state
        code = 0
        for c in reversed(co):
            code = (code << 2) | c
        for p in reversed(cp):
            code = (code << 3) | p
        return code

    def decode_key(self, state) -> Hashable:
        """Constant: the move set is state-independent, so every state decodes alike."""
        return 0

    def kernel(self) -> "CubeKernel":
        """The cubie-word kernel over composed per-move permutation tables."""
        return cached_kernel(self, CubeKernel)


class CubeKernel(DomainKernel):
    """Cubie kernel on the 40-bit state word: no tables of states.

    A state's code packs the 8 corner positions at 3 bits each (bits
    ``3i``) and the 8 orientations at 2 bits each (bits ``24 + 2i``) into
    one int, which is also the domain's state key.  Each of the nine moves
    — including half and counter-turns — collapses to a single
    permutation/twist pair obtained by applying the move to an
    identity-labelled cube, so a batch of codes advances by unpacking,
    two row-wise gathers and a mod-3 add.  All nine moves are always valid
    (``valid_count`` ≡ 9).
    """

    def __init__(self, domain: PocketCubeDomain) -> None:
        self.domain = domain
        # Composed tables: applying MOVES[m] maps cp -> cp[P[m]] and
        # co -> (co[P[m]] + T[m]) % 3 — read off by moving an
        # identity-labelled cube (cp = 0..7, co = 0).
        perms = np.empty((9, 8), dtype=np.int64)
        twists = np.empty((9, 8), dtype=np.int64)
        identity = (tuple(range(8)), (0,) * 8)
        for m, move in enumerate(MOVES):
            perms[m], twists[m] = _apply_move(identity, move)
        self._perms = perms
        self._twists = twists
        self._moves = np.array(MOVES, dtype=object)
        self._cp_shift = 3 * np.arange(8, dtype=np.int64)
        self._co_shift = 24 + 2 * np.arange(8, dtype=np.int64)
        self._corners = np.arange(8, dtype=np.int64)
        self._solved = domain.state_key((_SOLVED_CP, _SOLVED_CO))
        # The scalar step's tables, built on the first step.
        self._chunks: Optional[list] = None

    def _unpack(self, codes):
        col = codes[:, None]
        return (col >> self._cp_shift) & 7, (col >> self._co_shift) & 3

    # -- DomainKernel surface -------------------------------------------------

    def code_of_key(self, key: Hashable) -> int:
        """The state key is the cubie word."""
        return key

    def valid_count(self, codes) -> np.ndarray:
        """Always 9."""
        return np.full(codes.shape, 9, dtype=np.int64)

    def advance(self, codes, idx) -> np.ndarray:
        """Apply move ``idx[i]`` to cube ``codes[i]``."""
        cp, co = self._unpack(codes)
        perm = self._perms[idx]
        cp = np.take_along_axis(cp, perm, axis=1)
        co = (np.take_along_axis(co, perm, axis=1) + self._twists[idx]) % 3
        return (cp << self._cp_shift).sum(axis=1) | (co << self._co_shift).sum(axis=1)

    def goal_mask(self, codes) -> np.ndarray:
        """One comparison with the solved word."""
        return codes == self._solved

    def goal_fit(self, codes) -> np.ndarray:
        """Placed-and-oriented movable corners over 7."""
        cp, co = self._unpack(codes)
        placed = (cp == self._corners) & (co == 0)
        placed[:, 6] = False  # DBL is fixed and excluded from the count
        return placed.sum(axis=1) / 7.0

    def step(self, code: int, gene: float):
        """One gene on the cubie word: four table lookups, OR-ed together.

        Corners ``2c`` and ``2c+1`` form chunk ``c``: their two positions
        (bits ``6c`` up) and two orientations (bits ``24 + 4c`` up) make a
        10-bit index into the move's table for that chunk, whose entry is
        the two corners' fields already permuted and twisted into place.
        """
        chunks = self._chunks
        if chunks is None:
            chunks = self._chunks = self._chunk_tables()
        slot = int(gene * 9)
        if slot >= 9:
            slot = 8
        t0, t1, t2, t3 = chunks[slot]
        code = (
            t0[(code & 63) | ((code >> 18) & 960)]
            | t1[((code >> 6) & 63) | ((code >> 22) & 960)]
            | t2[((code >> 12) & 63) | ((code >> 26) & 960)]
            | t3[((code >> 18) & 63) | ((code >> 30) & 960)]
        )
        return slot, code, code == self._solved

    def _chunk_tables(self) -> list:
        """Per move, four 1024-entry lists: a chunk's fields moved into place."""
        idx = np.arange(1024, dtype=np.int64)
        tables = []
        for m in range(9):
            # Source corner s lands on the slot d with perms[m, d] == s.
            dest = np.argsort(self._perms[m])
            per_move = []
            for c in range(4):
                word = np.zeros(1024, dtype=np.int64)
                for half in range(2):
                    s = 2 * c + half
                    d = int(dest[s])
                    cp = (idx >> (3 * half)) & 7
                    co = ((idx >> (6 + 2 * half)) & 3) + self._twists[m, d]
                    word |= (cp << (3 * d)) | ((co % 3) << (24 + 2 * d))
                per_move.append(word.tolist())
            tables.append(tuple(per_move))
        return tables

    # -- reconstruction -------------------------------------------------------

    def state_of(self, code: int):
        """The ``(cp, co)`` tuple pair."""
        return (
            tuple((code >> (3 * i)) & 7 for i in range(8)),
            tuple((code >> (24 + 2 * i)) & 3 for i in range(8)),
        )

    def state_keys_of(self, codes) -> list:
        """The codes themselves."""
        return codes.tolist()

    def decode_keys_of(self, codes) -> list:
        """Constant: every state decodes alike."""
        return [0] * len(codes)

    def operations_of(self, codes, slots) -> list:
        """Slot ``j`` is always ``MOVES[j]``."""
        return self._moves[slots].tolist()
