"""Towers of Hanoi planning domain (paper, Section 4.1).

Three stakes A, B, C and ``n`` disks ``d1`` (smallest) .. ``dn`` (largest),
all initially on stake A; the goal is all disks on stake B.  One disk moves
per step and a larger disk may never rest on a smaller one.  The optimal
solution has ``2**n - 1`` moves.

Goal fitness (paper, equation 5): disk ``d_i`` has weight ``2**(i-1)``; the
fitness of a state is the total weight of disks on stake B divided by the
total weight ``2**n - 1``, so placing large disks correctly dominates.  The
paper itself points out the deceptiveness this creates: a state with every
disk *except* the largest on B scores just under 0.5 yet is farther from the
goal than the initial state.

State representation: a tuple of three tuples, one per stake, each listing
disk sizes bottom-to-top, e.g. the 3-disk initial state is
``((3, 2, 1), (), ())``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.domains.kernels import cached_kernel
from repro.protocol import DomainKernel, PlanningDomain
from repro.planning.conditions import atom
from repro.planning.grounding import OperatorSchema, ground_all
from repro.planning.problem import PlanningProblem

__all__ = [
    "HanoiMove",
    "HanoiDomain",
    "HanoiKernel",
    "hanoi_max_len",
    "hanoi_strips_problem",
    "optimal_hanoi_moves",
]

#: Largest instance the dense kernel tabulates (3^12 states ≈ 20 MB of
#: tables); bigger domains decode on the engine.
_MAX_KERNEL_DISKS = 12

STAKES = ("A", "B", "C")
#: All ordered stake pairs, fixed order — the decoder's gene→op mapping
#: depends on this ordering being stable.
_MOVES = tuple(
    (src, dst) for src in range(3) for dst in range(3) if src != dst
)


@dataclass(frozen=True)
class HanoiMove:
    """Move the top disk of stake *src* onto stake *dst* (0=A, 1=B, 2=C)."""

    src: int
    dst: int

    def __str__(self) -> str:
        """``move(A->B)`` style."""
        return f"move({STAKES[self.src]}->{STAKES[self.dst]})"


class HanoiDomain(PlanningDomain):
    """The n-disk Towers of Hanoi as a GA-plannable domain."""

    def __init__(self, n_disks: int, goal_stake: int = 1) -> None:
        if n_disks < 1:
            raise ValueError(f"need at least one disk, got {n_disks}")
        if goal_stake not in (0, 1, 2):
            raise ValueError(f"goal stake must be 0, 1 or 2, got {goal_stake}")
        self.n_disks = n_disks
        self.goal_stake = goal_stake
        self.name = f"hanoi-{n_disks}"
        # Weight of disk of size i is 2**(i-1); total = 2**n - 1.
        self._weights = [0] + [2 ** (i - 1) for i in range(1, n_disks + 1)]
        self._total_weight = 2**n_disks - 1
        self._initial = (tuple(range(n_disks, 0, -1)), (), ())
        self._moves = tuple(HanoiMove(s, d) for s, d in _MOVES)

    # -- PlanningDomain ------------------------------------------------------

    @property
    def initial_state(self):
        """All disks on stake A."""
        return self._initial

    def valid_operations(self, state) -> Sequence[HanoiMove]:
        """Moves of a top disk onto an empty stake or a larger disk, in ``_MOVES`` order."""
        ops = []
        for mv in self._moves:
            src_stack = state[mv.src]
            if not src_stack:
                continue
            dst_stack = state[mv.dst]
            if dst_stack and dst_stack[-1] < src_stack[-1]:
                continue  # larger disk may not rest on a smaller one
            ops.append(mv)
        return ops

    def apply(self, state, op: HanoiMove):
        """Move the top disk of ``op.src`` onto ``op.dst``."""
        stacks = list(state)
        src = stacks[op.src]
        disk = src[-1]
        stacks[op.src] = src[:-1]
        stacks[op.dst] = stacks[op.dst] + (disk,)
        return tuple(stacks)

    def goal_fitness(self, state) -> float:
        """Weighted fraction of disk mass already on the goal stake (eq. 5)."""
        weight_on_goal = sum(self._weights[d] for d in state[self.goal_stake])
        return weight_on_goal / self._total_weight

    def is_goal(self, state) -> bool:
        """Every disk on the goal stake."""
        return len(state[self.goal_stake]) == self.n_disks

    def state_key(self, state) -> Hashable:
        """The state tuple itself."""
        return state

    def kernel(self) -> Optional["HanoiKernel"]:
        """Dense precompiled kernel (None beyond ``3**12`` states)."""
        if self.n_disks > _MAX_KERNEL_DISKS:
            return None
        return cached_kernel(self, HanoiKernel)

    # -- reference data ------------------------------------------------------

    @property
    def optimal_length(self) -> int:
        """Minimum number of moves: ``2**n - 1``."""
        return 2**self.n_disks - 1


class HanoiKernel(DomainKernel):
    """Fully precompiled array kernel for the n-disk Towers of Hanoi.

    A Hanoi state is exactly "which stake is each disk on" — the stacking
    order within a stake is forced by disk size — so a state's code is the
    base-3 number ``sum_i stake(disk i+1) * 3**i``, and the whole
    transition system (``3**n`` states × at most 3 moves) is tabulated
    vectorised at construction; every question is one gather.  State
    tuples are built once per code on first request and served from one
    list, so plans share their key objects.
    """

    code_dtype = "int32"

    def __init__(self, domain: HanoiDomain) -> None:
        n = domain.n_disks
        if n > _MAX_KERNEL_DISKS:
            raise ValueError(
                f"HanoiKernel tabulates 3**n states; n={n} exceeds the "
                f"{_MAX_KERNEL_DISKS}-disk budget"
            )
        self.domain = domain
        self._n = n
        self._pow3 = [3**i for i in range(n)]
        m = int(3**n)
        codes = np.arange(m, dtype=np.int64)
        # stakes[s, i] = stake of disk i+1 in state s (its base-3 digit i).
        stakes = (codes[:, None] // np.asarray(self._pow3, dtype=np.int64)[None, :]) % 3
        # top[s, t] = index of the smallest (= movable) disk on stake t, n if
        # empty; filled largest-disk-first so smaller disks overwrite.
        top = np.full((m, 3), n, dtype=np.int64)
        rows = np.arange(m)
        for i in range(n - 1, -1, -1):
            top[rows, stakes[:, i]] = i
        vc = np.zeros(m, dtype=np.int32)
        # At most 3 moves: the smallest disk has 2, one other top disk 1.
        succ = np.zeros((m, 3), dtype=np.int32)
        move = np.zeros((m, 3), dtype=np.int8)  # slot -> index into _MOVES
        for mi, (src, dst) in enumerate(_MOVES):
            movable = top[:, src]
            ok = (movable < n) & (movable < top[:, dst])
            target = codes[ok] + (dst - src) * 3 ** movable[ok]
            succ[codes[ok], vc[ok]] = target
            move[codes[ok], vc[ok]] = mi
            vc[ok] += 1
        self._vc = vc
        self._succ = succ
        self._move = move
        # Exact goal fitness: integer disk-weight sums, one float division —
        # the same arithmetic (and rounding) as HanoiDomain.goal_fitness.
        weights = 2 ** np.arange(n, dtype=np.int64)  # weight of disk i+1
        won = ((stakes == domain.goal_stake) * weights[None, :]).sum(axis=1)
        self._gfit = won / np.float64(domain._total_weight)
        self._gmask = won == domain._total_weight
        # code -> state tuple, built on first request; _built mirrors it.
        self._states = np.full(m, None, dtype=object)
        self._built = np.zeros(m, dtype=bool)
        self._moves = np.array(domain._moves, dtype=object)
        # The scalar step's list table (code -> tuple of successor codes),
        # built on the first step; the goal is the one all-on-goal code.
        self._next: Optional[list] = None
        self._goal_code = int(np.flatnonzero(self._gmask)[0])

    # -- DomainKernel surface -------------------------------------------------

    def code_of_key(self, key: Hashable) -> int:
        """The base-3 code of a state (the state is its own key)."""
        code = 0
        for t, stack in enumerate(key):
            for disk in stack:
                code += t * self._pow3[disk - 1]
        return code

    def valid_count(self, codes) -> np.ndarray:
        """Valid-move counts, one gather."""
        return self._vc[codes]

    def advance(self, codes, idx) -> np.ndarray:
        """Successor codes, one gather."""
        return self._succ[codes, idx]

    def goal_mask(self, codes) -> np.ndarray:
        """All disks on the goal stake, one gather."""
        return self._gmask[codes]

    def goal_fit(self, codes) -> np.ndarray:
        """Equation 5's weighted fraction, one gather."""
        return self._gfit[codes]

    def step(self, code: int, gene: float):
        """One gene on the list table: a tuple index and a comparison.

        A Hanoi state has two or three moves, and ``gene * k < k`` for
        every gene below 1 when ``k <= 3``, so ``int(gene * k)`` is found
        by two comparisons.
        """
        try:
            succ = self._next[code]
        except TypeError:  # no table yet: built on the first step
            self._next = self._next_table()
            succ = self._next[code]
        x = gene * len(succ)
        slot = 0 if x < 1.0 else 1 if x < 2.0 else 2
        code = succ[slot]
        return slot, code, code == self._goal_code

    def _next_table(self) -> list:
        """Per code, the tuple of its two or three successor codes in slot order."""
        codes = list(range(self._succ.shape[0]))  # one shared int per code
        first, second, third = (
            [codes[c] for c in self._succ[:, j].tolist()] for j in range(3)
        )
        return [
            (a, b) if k == 2 else (a, b, c)
            for k, a, b, c in zip(self._vc.tolist(), first, second, third)
        ]

    # -- reconstruction -------------------------------------------------------

    def state_of(self, code: int):
        """The state tuple for *code*, one shared object per code."""
        state = self._states[code]
        if state is None:
            stacks: list = [[], [], []]
            for i in range(self._n - 1, -1, -1):
                stacks[(code // self._pow3[i]) % 3].append(i + 1)
            state = self._states[code] = tuple(tuple(s) for s in stacks)
        return state

    def state_keys_of(self, codes) -> list:
        """The shared state tuples (a Hanoi state is its own key)."""
        missing = codes[~self._built[codes]]
        if missing.size:
            # A set, not np.unique: that imports numpy.ma (~1 MB) on first use.
            for code in set(missing.tolist()):
                self.state_of(code)
            self._built[missing] = True
        return self._states[codes].tolist()

    def operations_of(self, codes, slots) -> list:
        """The domain's own :class:`HanoiMove` objects, by a table gather."""
        return self._moves[self._move[codes, slots]].tolist()


def hanoi_max_len(n_disks: int) -> int:
    """MaxLen for the n-disk Hanoi GA: five times the optimal length."""
    return 5 * (2**n_disks - 1)


def optimal_hanoi_moves(n_disks: int, src: int = 0, dst: int = 1) -> list:
    """The classical recursive optimal solution, as :class:`HanoiMove` list.

    Used as ground truth in tests and as a seeding source in the seeding
    ablation.
    """
    if n_disks < 0:
        raise ValueError("negative disk count")
    moves: list = []

    def rec(k: int, a: int, b: int) -> None:
        if k == 0:
            return
        c = 3 - a - b  # the spare stake
        rec(k - 1, a, c)
        moves.append(HanoiMove(a, b))
        rec(k - 1, c, b)

    rec(n_disks, src, dst)
    return moves


def hanoi_strips_problem(n_disks: int) -> PlanningProblem:
    """A STRIPS encoding of the same puzzle, for the classical planners.

    Atoms: ``on(x, y)`` (disk or stake y directly supports x) and
    ``clear(x)`` (nothing rests on x).  Disks are ``1 .. n`` (ints, 1 the
    smallest); stakes are ``"A" | "B" | "C"``.  A disk may sit on any strictly
    larger disk or on any stake.
    """
    if n_disks < 1:
        raise ValueError(f"need at least one disk, got {n_disks}")
    disks = list(range(1, n_disks + 1))
    objects = {"disk": disks, "support": disks + list(STAKES)}

    def _smaller(binding) -> bool:
        d, frm, to = binding["?d"], binding["?from"], binding["?to"]
        if frm == to or d == frm or d == to:
            return False
        for place in (frm, to):
            if isinstance(place, int) and place <= d:
                return False  # can only rest on a strictly larger disk
        return True

    move = OperatorSchema(
        name="move",
        parameters=(("?d", "disk"), ("?from", "support"), ("?to", "support")),
        preconditions=(
            atom("clear", "?d"),
            atom("on", "?d", "?from"),
            atom("clear", "?to"),
        ),
        add=(atom("on", "?d", "?to"), atom("clear", "?from")),
        delete=(atom("on", "?d", "?from"), atom("clear", "?to")),
        constraint=_smaller,
    )
    operations = ground_all([move], objects)

    conditions = set()
    for op in operations:
        conditions |= op.preconditions | op.add | op.delete

    initial = {atom("clear", 1), atom("clear", "B"), atom("clear", "C")}
    for d in disks:
        below = d + 1 if d < n_disks else "A"
        initial.add(atom("on", d, below))
    conditions |= initial

    goal = {atom("on", n_disks, "B")}
    for d in disks[:-1]:
        goal.add(atom("on", d, d + 1))
    conditions |= goal

    return PlanningProblem(
        conditions=frozenset(conditions),
        operations=tuple(operations),
        initial=frozenset(initial),
        goal=frozenset(goal),
        name=f"hanoi-strips-{n_disks}",
    )
