"""STRIPS-like operations: preconditions, postconditions, and a cost.

The paper's operations carry "a set of preconditions, a set of
postconditions, and a cost".  We use the standard STRIPS split of
postconditions into an *add list* and a *delete list*; the union view is
exposed as :attr:`Operation.postconditions` for fidelity with the paper's
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.planning.conditions import State, format_atom

__all__ = ["Operation"]


@dataclass(frozen=True)
class Operation:
    """A ground operation.

    Parameters
    ----------
    name:
        Unique human-readable identifier, e.g. ``"move(d1, A, B)"``.
    preconditions:
        Atoms that must hold for the operation to be valid.
    add:
        Atoms asserted by the operation.
    delete:
        Atoms retracted by the operation.
    cost:
        Non-negative execution cost (latency, arithmetic work, data volume
        transferred, ... — problem specific; the paper's experiments use
        unit cost).
    """

    name: str
    preconditions: frozenset = field(default_factory=frozenset)
    add: frozenset = field(default_factory=frozenset)
    delete: frozenset = field(default_factory=frozenset)
    cost: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "preconditions", frozenset(self.preconditions))
        object.__setattr__(self, "add", frozenset(self.add))
        object.__setattr__(self, "delete", frozenset(self.delete))
        if self.cost < 0:
            raise ValueError(f"operation {self.name!r} has negative cost {self.cost}")
        overlap = self.add & self.delete
        if overlap:
            raise ValueError(
                f"operation {self.name!r} both adds and deletes "
                f"{sorted(format_atom(a) for a in overlap)}"
            )

    @property
    def postconditions(self) -> frozenset:
        """The paper's single postcondition set: everything the op asserts."""
        return self.add

    def applicable(self, state: State) -> bool:
        """True iff the operation is valid in *state* (pre ⊆ state)."""
        return self.preconditions <= state

    def apply(self, state: State) -> State:
        """Successor state ``(state - delete) | add``.

        Raises ``ValueError`` when the operation is not applicable; callers
        on hot paths should check :meth:`applicable` themselves and use
        :meth:`apply_unchecked`.
        """
        if not self.applicable(state):
            missing = self.preconditions - state
            raise ValueError(
                f"operation {self.name!r} is invalid: missing preconditions "
                f"{sorted(format_atom(a) for a in missing)}"
            )
        return self.apply_unchecked(state)

    def apply_unchecked(self, state: State) -> State:
        """Successor state without the applicability check (hot path)."""
        return (state - self.delete) | self.add

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def check_operations(operations: Iterable[Operation], universe: frozenset) -> None:
    """Validate that every atom mentioned by *operations* is in *universe*.

    The paper's problem definition fixes the finite condition set up front;
    this catches typos in hand-built domains early.
    """
    for op in operations:
        for label, atoms in (
            ("precondition", op.preconditions),
            ("add", op.add),
            ("delete", op.delete),
        ):
            stray = atoms - universe
            if stray:
                raise ValueError(
                    f"operation {op.name!r} references unknown {label} atoms "
                    f"{sorted(format_atom(a) for a in stray)}"
                )
