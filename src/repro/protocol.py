"""The planning-domain protocol the GA planner couples to.

Lives at the package root (not inside ``repro.domains``) so low-level
modules — the STRIPS adapter, the search algorithms, the GA decoder — can
import it without triggering the domain package's __init__, which would
create an import cycle.

The GA's indirect encoding only needs four things from a domain: the start
state, the ordered list of valid operations in a state, the transition
function, and a goal fitness in ``[0, 1]``.  Everything else in the library
(STRIPS problems, the grid-workflow world, the toy puzzles) adapts to this
protocol.

Determinism contract
--------------------
``valid_operations(state)`` must return the same sequence, in the same
order, every time it is called with the same state.  The gene→operation
mapping (Section 3.1 of the paper) divides [0, 1) into ``k`` equal bins
indexed into this sequence, so a nondeterministic order would silently change
the meaning of a genome between evaluations.

The kernel ABI
--------------
Regular domains can additionally expose a :class:`DomainKernel` — an
array-level view of the same transition system (interned integer state
ids, per-state valid-operation *counts*, an int successor table, packed
goal-fitness/goal-mask arrays) that lets ``repro.core.vector_decode``
decode a whole population in numpy instead of walking Python objects
gene by gene.  The kernel is strictly optional: :meth:`PlanningDomain.
kernel` returns ``None`` by default and every consumer falls back to the
object path, so the two APIs coexist and must agree bit-for-bit wherever
both exist.
"""

from __future__ import annotations

import abc
import weakref
from typing import Generic, Hashable, Optional, Sequence, TypeVar

__all__ = ["PlanningDomain", "DomainKernel"]

S = TypeVar("S")  # state type
O = TypeVar("O")  # operation type


class PlanningDomain(abc.ABC, Generic[S, O]):
    """Abstract base for GA-plannable domains."""

    #: Human-readable domain name (used in reports).
    name: str = "domain"

    @property
    @abc.abstractmethod
    def initial_state(self) -> S:
        """The state the search starts from."""

    @abc.abstractmethod
    def valid_operations(self, state: S) -> Sequence[O]:
        """Operations valid in *state*, in a deterministic order.

        May be empty (dead end); the decoder stops decoding there.
        """

    @abc.abstractmethod
    def apply(self, state: S, op: O) -> S:
        """Successor state after executing *op* (assumed valid) in *state*."""

    @abc.abstractmethod
    def goal_fitness(self, state: S) -> float:
        """Quality of the match between *state* and the goal, in [0, 1].

        Must equal 1.0 exactly when *state* satisfies the goal.  This is the
        problem-specific component of the paper's fitness function.
        """

    def is_goal(self, state: S) -> bool:
        """Whether *state* satisfies all goal conditions.

        Default: goal fitness of 1.  Domains with float-precision concerns
        should override with an exact test.
        """
        return self.goal_fitness(state) >= 1.0

    def operation_cost(self, op: O) -> float:
        """Cost of an operation; unit by default (paper's experiments)."""
        return 1.0

    def state_key(self, state: S) -> Hashable:
        """Hashable identity of a state (used by caches and visited sets).

        Contract: keys must be cheap to build, hashable, and *injective* —
        two states may share a key only if they are interchangeable for
        planning (same valid operations, same transitions, same goal
        fitness).  The decode engine relies on this: it memoises
        ``(state_key, gene index) → successor`` transitions and resumes
        partial decodes from a *representative* concrete state it stored
        under the same key, so a key collision between genuinely different
        states would silently corrupt every cached evaluation.  The default
        (the state itself) is always correct for hashable immutable states.

        Domains with a packed kernel key states by the packed row as one
        Python int (the sliding tile and the pocket cube use
        ``int.from_bytes(row, "little")`` of their ``uint8`` cells): the
        kernel indexes states by that int and serves it back from
        ``state_key_of``, so plans and memos share one small object per
        state, and int hashes do not vary between processes as ``bytes``
        hashes do.
        """
        return state

    def decode_key(self, state: S) -> Hashable:
        """Equivalence key for state-aware crossover's state-match test.

        The paper: "two states match if the same genetic code will be
        mapped to the same sequence of operations from these two states".
        Two states with equal decode keys MUST map every gene suffix to the
        same operation sequence.  Identical states trivially qualify, so
        the default is :meth:`state_key`; domains where the gene→operation
        mapping depends on less than the full state should override with
        the coarsest *provably sufficient* key — e.g. the sliding-tile
        puzzle's mapping depends only on the blank position, which makes
        matches abundant and state-aware crossover effective.
        """
        return self.state_key(state)

    def describe_operation(self, op: O) -> str:
        """Human-readable rendering of an operation."""
        return str(op)

    def kernel(self) -> Optional["DomainKernel"]:
        """The domain's array-level kernel, or ``None`` when unsupported.

        Capability discovery hook for the vectorised decode path: callers
        probe ``domain.kernel()`` and fall back to the object API on
        ``None``.  Implementations should return a *cached* kernel (one per
        domain instance — see ``repro.domains.kernels.cached_kernel``) so
        repeated probes are free and concurrent consumers (islands, phases)
        share warm tables.  A domain may also return ``None`` selectively,
        e.g. when the instance is too large to tabulate.
        """
        return None

    # -- convenience -------------------------------------------------------

    def execute(self, ops: Sequence[O]) -> S:
        """Apply a valid operation sequence from the initial state."""
        state = self.initial_state
        for i, op in enumerate(ops):
            valid = self.valid_operations(state)
            if op not in list(valid):
                raise ValueError(
                    f"operation {self.describe_operation(op)!r} at index {i} "
                    f"is not valid in the current state"
                )
            state = self.apply(state, op)
        return state

    def plan_cost(self, ops: Sequence[O]) -> float:
        return float(sum(self.operation_cost(op) for op in ops))


class DomainKernel(abc.ABC, Generic[S, O]):
    """Array-level ABI over a domain's transition system.

    A kernel interns states to dense integer ids and exposes the decode
    loop's per-gene questions — "how many valid operations here?", "which
    successor does slot ``j`` lead to?", "is this a goal state, and how
    fit?" — as numpy arrays indexed by id, so
    :class:`repro.core.vector_decode.VectorDecoder` can advance *every*
    genome of a population by one gene with a handful of array gathers.

    Exactness contract (the whole point): for every interned id the arrays
    must agree bit-for-bit with the object API —

    - ``valid_count[i] == len(domain.valid_operations(state_of(i)))``,
    - slot ``j`` of ``succ[i]`` is the state reached by
      ``domain.apply(state, valid_operations(state)[j])``,
    - ``goal_fit[i] == float(domain.goal_fitness(state_of(i)))`` (the very
      same IEEE double, not merely close),
    - ``goal_mask[i] == domain.is_goal(state_of(i))``,
    - with ``unit_cost`` False, ``op_cost[i, j] ==
      float(domain.operation_cost(valid_operations(state)[j]))``.

    Invariants: *interned* ids (rows of the arrays) always have
    ``valid_count`` / ``goal_fit`` / ``goal_mask`` filled; ``succ`` entries
    are filled lazily — ``-1`` marks a transition not yet computed, and
    :meth:`fill_transitions` materialises requested ``(id, slot)`` pairs in
    bulk.  Dense kernels (precompiled tables) simply never contain ``-1``.
    Arrays may be *reallocated* by growth or :meth:`reset`; consumers must
    re-read the properties after any call that can intern states and must
    re-intern ids after a reset (``epoch`` changes).

    Lifetime: the kernel holds its domain *weakly* (see :attr:`domain`),
    so a kernel cached per domain instance dies with that instance.
    """

    #: Width of the ``succ`` table (max valid operations in any state).
    max_ops: int
    #: True when every operation costs exactly 1.0 (no ``op_cost`` table).
    unit_cost: bool = True
    #: Incremented by :meth:`reset`; interned ids are invalid across epochs.
    epoch: int = 0

    @property
    def domain(self) -> "PlanningDomain[S, O]":
        """The object-API domain this kernel mirrors, held by weak reference.

        Ownership rule: the kernel never keeps its domain alive — whoever
        keeps a kernel must also keep its domain (``VectorDecoder`` stores
        the domain it was built from).  A strong back-reference would make
        the kernel, the value in ``cached_kernel``'s weak-keyed cache, pin
        its own key, so no kernel would ever be freed.  Reading this after
        the domain died raises ``ReferenceError``.
        """
        domain = self._domain_ref()
        if domain is None:
            raise ReferenceError(f"{type(self).__name__} outlived its domain")
        return domain

    @domain.setter
    def domain(self, domain: "PlanningDomain[S, O]") -> None:
        self._domain_ref = weakref.ref(domain)

    @property
    @abc.abstractmethod
    def n_states(self) -> int:
        """Number of interned states (ids are ``0 .. n_states-1``)."""

    @property
    @abc.abstractmethod
    def valid_count(self):
        """int array, ``valid_count[i]`` = number of valid ops in state i."""

    @property
    @abc.abstractmethod
    def succ(self):
        """int32 ``(capacity, max_ops)`` successor table; ``-1`` = unfilled."""

    @property
    @abc.abstractmethod
    def goal_fit(self):
        """float64 array of exact ``goal_fitness`` values per id."""

    @property
    @abc.abstractmethod
    def goal_mask(self):
        """bool array, ``goal_mask[i]`` = ``is_goal(state_of(i))``."""

    @property
    def op_cost(self):
        """float64 ``(capacity, max_ops)`` cost table; ``None`` if unit-cost."""
        return None

    @abc.abstractmethod
    def intern(self, state: S) -> int:
        """Id for *state*, interning it (and its row data) on first sight."""

    @abc.abstractmethod
    def id_for_key(self, key: Hashable) -> Optional[int]:
        """Id previously interned under ``domain.state_key`` *key*, or None.

        Used by dirty-prefix resume to re-enter the tables from a parent
        plan's ``state_keys``; ``None`` (evicted or never seen) makes the
        caller fall back to a full decode.
        """

    @abc.abstractmethod
    def fill_transitions(self, ids, slots) -> None:
        """Materialise ``succ`` (and ``op_cost``) for the given pairs.

        *ids*/*slots* are parallel int arrays of ``(state id, slot)`` pairs
        whose ``succ`` entry is ``-1``; duplicates allowed.  Successor
        states are interned as a side effect (arrays may reallocate).
        """

    def reset(self) -> None:
        """Drop interned state (bounded-memory escape hatch); bumps epoch.

        Dense kernels may keep their precompiled tables and make this a
        no-op as long as ids remain stable (then ``epoch`` must not change).
        """

    @property
    def overflowed(self) -> bool:
        """Whether the table grew past its budget and wants a :meth:`reset`."""
        return False

    # -- reconstruction hooks (plan-keeping decodes) --------------------------

    @abc.abstractmethod
    def state_of(self, sid: int) -> S:
        """The concrete state object for an interned id."""

    @abc.abstractmethod
    def operations_of(self, sid: int) -> Sequence[O]:
        """``domain.valid_operations(state_of(sid))`` as a cached tuple."""

    def state_key_of(self, sid: int) -> Hashable:
        """``domain.state_key(state_of(sid))`` (override to serve cached)."""
        return self.domain.state_key(self.state_of(sid))

    def decode_key_of(self, sid: int) -> Hashable:
        """``domain.decode_key(state_of(sid))`` (override to serve cached)."""
        return self.domain.decode_key(self.state_of(sid))

    def state_keys_of(self, sids) -> list:
        """State keys for an int array of ids, in order.

        Bulk form of :meth:`state_key_of` — plan reconstruction asks for
        a whole batch's worth of keys at once, and kernels whose keys
        derive from packed rows can build them vectorised (one ``tolist``
        instead of one genexpr per state).  The default just loops.
        """
        return [self.state_key_of(int(s)) for s in sids]

    def decode_keys_of(self, sids) -> list:
        """Decode keys for an int array of ids, in order (bulk form)."""
        return [self.decode_key_of(int(s)) for s in sids]
