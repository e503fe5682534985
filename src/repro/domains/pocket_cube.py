"""The 2×2×2 Rubik's cube (Pocket Cube) planning domain.

Korf & Felner's disjoint-PDB paper (the paper's reference [9]) evaluates on
the sliding-tile puzzle *and* Rubik's cube; this domain adds the cube side
of that pair at the tractable 2×2×2 size (3,674,160 reachable states).

Cubie-level model (Kociemba conventions): eight corners, each with a
position (permutation index) and an orientation (0–2).  The DBL corner is
held fixed — only U, R and F face turns are generated, which never move it
— so whole-cube rotations are modded out and the solved state is unique.

State: ``(cp, co)`` — two 8-tuples (corner permutation and orientation).
Its key is the 16 values ``cp ‖ co`` packed one byte each into a Python
int, ``int.from_bytes(bytes((*cp, *co)), "little")`` — the same int the
kernel computes from its packed ``uint8`` rows.
Moves: U, U', U2, R, R', R2, F, F', F2 — all nine valid in every state, so
the gene→operation mapping is state-independent (``decode_key`` is
constant and state-aware crossover always finds matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.domains.kernels import cached_kernel, grow, intern_rows
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
        return self._initial

    def valid_operations(self, state) -> Sequence[CubeMove]:
        return MOVES  # every face turn is always legal

    def apply(self, state, op: CubeMove):
        return _apply_move(state, op)

    def goal_fitness(self, state) -> float:
        cp, co = state
        correct = sum(
            1 for i in range(8) if i != 6 and cp[i] == i and co[i] == 0
        )
        return correct / 7.0

    def is_goal(self, state) -> bool:
        return state == (_SOLVED_CP, _SOLVED_CO)

    def state_key(self, state) -> int:
        """``cp ‖ co`` packed one byte per value into an int (little-endian)."""
        cp, co = state
        return int.from_bytes(bytes((*cp, *co)), "little")

    def decode_key(self, state) -> Hashable:
        # The move set is state-independent: all states decode identically.
        return 0

    def kernel(self) -> "CubeKernel":
        """Lazy packed kernel over composed per-move permutation tables."""
        return cached_kernel(self, CubeKernel)

    @staticmethod
    def solved_state() -> Tuple[tuple, tuple]:
        return (_SOLVED_CP, _SOLVED_CO)


class CubeKernel(DomainKernel):
    """Packed cubie kernel: one composed (perm, twist) table per move.

    A state packs into 16 ``uint8`` values (8 corner positions + 8
    orientations).  Each of the nine moves — including half and
    counter-turns — collapses to a single permutation/twist pair obtained
    by applying the move to an identity-labelled cube, so a batch of
    states advances with two gathers and a mod-3 add.  All nine moves are
    always valid (``valid_count`` ≡ 9); only successor interning is lazy.
    States are indexed by their packed int key, held once and served as
    the state key (:func:`~repro.domains.kernels.intern_rows`).
    """

    def __init__(self, domain: PocketCubeDomain, max_states: int = 400_000) -> None:
        self.domain = domain
        self.max_ops = 9
        self.unit_cost = True
        self.epoch = 0
        self.max_states = max_states
        # Composed tables: applying MOVES[m] maps cp -> cp[P[m]] and
        # co -> (co[P[m]] + T[m]) % 3 — read off by moving an
        # identity-labelled cube (cp = 0..7, co = 0).
        perms = np.empty((9, 8), dtype=np.int64)
        twists = np.empty((9, 8), dtype=np.uint8)
        identity = (tuple(range(8)), (0,) * 8)
        for m, move in enumerate(MOVES):
            cp, co = _apply_move(identity, move)
            perms[m] = cp
            twists[m] = co
        self._perms = perms
        self._twists = twists
        self._solved = np.concatenate(
            [np.arange(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)]
        )
        self._corner_idx = np.arange(8, dtype=np.uint8)
        self._init_tables()

    def _init_tables(self) -> None:
        cap = 1024
        self._ids: dict = {}  # packed int key -> id
        self._keys: list = []  # id -> packed int key
        self._packed = np.zeros((cap, 16), dtype=np.uint8)  # cp ‖ co
        self._vc = np.full(cap, 9, dtype=np.int32)
        self._succ = np.full((cap, 9), -1, dtype=np.int32)
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

    @staticmethod
    def _pack(state) -> np.ndarray:
        cp, co = state
        return np.asarray(tuple(cp) + tuple(co), dtype=np.uint8)

    def intern(self, state) -> int:
        return int(intern_rows(self._ids, self._keys, self._pack(state)[None, :], self._admit)[0])

    def id_for_key(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def _admit(self, rows: np.ndarray) -> None:
        needed = len(self._keys)
        start = needed - rows.shape[0]
        self._packed = grow(self._packed, needed)
        self._vc = grow(self._vc, needed, fill=9)
        self._succ = grow(self._succ, needed, fill=-1)
        self._gfit = grow(self._gfit, needed)
        self._gmask = grow(self._gmask, needed)
        sl = slice(start, needed)
        self._packed[sl] = rows
        self._vc[sl] = 9
        self._succ[sl] = -1
        cp = rows[:, :8]
        co = rows[:, 8:]
        placed = (cp == self._corner_idx[None, :]) & (co == 0)
        placed[:, 6] = False  # DBL is fixed and excluded from the count
        correct = placed.sum(axis=1).astype(np.int64)
        self._gfit[sl] = correct / 7.0
        self._gmask[sl] = (rows == self._solved[None, :]).all(axis=1)

    def fill_transitions(self, ids, slots) -> None:
        code = ids.astype(np.int64) * 9 + slots
        code = np.unique(code)
        uids = code // 9
        uslots = code % 9
        fresh = self._succ[uids, uslots] < 0
        uids, uslots = uids[fresh], uslots[fresh]
        if uids.size == 0:
            return
        out = np.empty((uids.size, 16), dtype=np.uint8)
        src = self._packed[uids]
        for m in range(9):
            sel = uslots == m
            if not sel.any():
                continue
            perm = self._perms[m]
            cp = src[sel, :8]
            co = src[sel, 8:]
            out[sel, :8] = cp[:, perm]
            out[sel, 8:] = (co[:, perm] + self._twists[m][None, :]) % 3
        nids = intern_rows(self._ids, self._keys, out, self._admit)
        self._succ[uids, uslots] = nids

    # -- reconstruction -------------------------------------------------------

    def state_of(self, sid: int):
        row = self._packed[sid].tolist()
        return (tuple(row[:8]), tuple(row[8:]))

    def state_key_of(self, sid: int) -> int:
        return self._keys[sid]

    def state_keys_of(self, sids) -> list:
        return list(map(self._keys.__getitem__, np.asarray(sids, dtype=np.int64).tolist()))

    def decode_key_of(self, sid: int) -> Hashable:
        return 0

    def operations_of(self, sid: int) -> Sequence[CubeMove]:
        return MOVES
