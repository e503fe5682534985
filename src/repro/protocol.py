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
array-level view of the same transition system, in which a state is a
fixed-width integer code and the valid-operation count, successor, goal
flag and goal fitness are vectorised functions of codes — that lets
``repro.core.vector_decode`` decode a whole population in numpy instead
of walking Python objects gene by gene.  The kernel is strictly
optional: :meth:`PlanningDomain.kernel` returns ``None`` by default and
every consumer falls back to the object path, so the two APIs coexist
and must agree bit-for-bit wherever both exist.
"""

from __future__ import annotations

import abc
import weakref
from typing import Generic, Hashable, Optional, Sequence, Tuple, TypeVar

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

        The sliding tile and the pocket cube key a state by its
        :class:`DomainKernel` code, one Python int (the board at 4 bits
        per cell, the cube's 40-bit cubie word), so a kernel resumes from
        a plan's keys without a lookup, and int hashes do not vary between
        processes as ``bytes`` hashes do.
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
        share one.  A domain may also return ``None`` selectively, e.g.
        when the instance's states do not fit the kernel's code.
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
        """Total :meth:`operation_cost` of the operation sequence *ops*."""
        return float(sum(self.operation_cost(op) for op in ops))


class DomainKernel(abc.ABC, Generic[S, O]):
    """Array-level ABI over a domain's transition system, on state codes.

    A kernel names every state by a fixed-width integer *code* that is the
    state itself: equal codes mean equal states, and the code alone
    answers the decode loop's per-gene questions — "how many valid
    operations here?", "which state does slot ``j`` lead to?", "is this a
    goal, and how fit?" — vectorised over an array of codes, so
    :class:`repro.core.vector_decode.VectorDecoder` advances *every*
    genome of a population by one gene with one call per question.  There
    are no ids to intern, no tables that fill up and nothing to reset:
    a code stays valid for the life of the kernel.

    Exactness contract (the whole point): for the code ``c`` of any state
    ``s`` reachable in the domain,

    - ``valid_count(c) == len(domain.valid_operations(s)) >= 1`` — kernel
      domains have no dead ends;
    - ``advance(c, j)`` is the code of
      ``domain.apply(s, domain.valid_operations(s)[j])``;
    - ``goal_fit(c) == float(domain.goal_fitness(s))`` (the very same IEEE
      double, not merely close) and ``goal_mask(c) == domain.is_goal(s)``;
    - ``code_of_key(domain.state_key(s)) == c`` and ``state_of(c) == s``;
    - every operation costs 1.0 (the domain keeps the default
      :meth:`PlanningDomain.operation_cost`), so a plan's cost is its
      length.

    Lifetime: the kernel holds its domain *weakly* (see :attr:`domain`),
    so a kernel cached per domain instance dies with that instance.
    """

    #: numpy dtype of the code arrays the kernel reads and returns.
    code_dtype = "int64"

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

    @abc.abstractmethod
    def code_of_key(self, key: Hashable) -> int:
        """The code of the state whose ``domain.state_key`` is *key*."""

    @abc.abstractmethod
    def valid_count(self, codes):
        """Number of valid operations in each code's state (all ``>= 1``)."""

    @abc.abstractmethod
    def advance(self, codes, idx):
        """Codes reached by taking slot ``idx[i]`` from state ``codes[i]``.

        Every ``idx[i]`` is in ``[0, valid_count(codes)[i])``.
        """

    @abc.abstractmethod
    def goal_mask(self, codes):
        """bool array: whether each code's state is a goal (``is_goal``)."""

    @abc.abstractmethod
    def goal_fit(self, codes):
        """float64 array of each code's exact ``goal_fitness``."""

    @abc.abstractmethod
    def step(self, code: int, gene: float) -> Tuple[int, int, bool]:
        """One gene of a scalar walk, on plain Python values.

        Returns ``(slot, next_code, next_is_goal)``: ``slot`` is
        ``min(int(gene * k), k - 1)`` for ``k = valid_count(code)`` (the
        same float64 multiply and truncation as the vector walk),
        ``next_code`` is ``advance(code, slot)`` as a Python int and
        ``next_is_goal`` is its ``goal_mask``.  Short batches walk row by
        row through this call, where a numpy call per gene would cost
        more than the gene.
        """

    # -- reconstruction hooks (plan-keeping decodes) --------------------------

    @abc.abstractmethod
    def state_of(self, code: int) -> S:
        """The concrete state object a code stands for."""

    @abc.abstractmethod
    def operations_of(self, codes, slots) -> list:
        """The operation slot ``slots[i]`` selects in state ``codes[i]``.

        That is ``domain.valid_operations(state_of(codes[i]))[slots[i]]``,
        the very objects the domain hands out, for parallel int arrays.
        """

    def state_keys_of(self, codes) -> list:
        """``domain.state_key`` of each code's state, in order.

        Plan reconstruction asks for a whole batch's keys at once; kernels
        whose state key is the code itself return ``codes.tolist()``.  The
        default goes through :meth:`state_of`.
        """
        key = self.domain.state_key
        return [key(self.state_of(c)) for c in codes.tolist()]

    def decode_keys_of(self, codes) -> list:
        """``domain.decode_key`` of each code's state, in order."""
        key = self.domain.decode_key
        return [key(self.state_of(c)) for c in codes.tolist()]
