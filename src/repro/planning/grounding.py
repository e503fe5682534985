"""Lifted operator schemas and grounding (a mini STRIPS/PDDL layer).

The paper assumes ontologies describing programs, data and resources; a
schema here plays the role of a lifted program description whose parameters
are instantiated against the object universe to produce the finite ground
operation set of a :class:`~repro.planning.problem.PlanningProblem`.

A schema's condition templates are atoms whose arguments may be *variables*
(strings starting with ``"?"``).  Grounding substitutes every type-compatible
combination of objects for the variables, skipping bindings rejected by the
schema's ``constraint`` predicate (e.g. "the two pegs must differ").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.planning.conditions import Atom
from repro.planning.operation import Operation

__all__ = ["Variable", "OperatorSchema", "ground_schema", "ground_all", "is_variable"]

Variable = str


def is_variable(token: object) -> bool:
    """Variables are strings beginning with ``?`` (PDDL convention)."""
    return isinstance(token, str) and token.startswith("?")


def _substitute(template: Atom, binding: Mapping[str, object]) -> Atom:
    out = []
    for tok in template:
        if is_variable(tok):
            try:
                out.append(binding[tok])
            except KeyError:
                raise ValueError(f"unbound variable {tok!r} in template {template!r}") from None
        else:
            out.append(tok)
    return tuple(out)


@dataclass(frozen=True)
class OperatorSchema:
    """A lifted operator.

    Parameters
    ----------
    name:
        Schema name; ground operation names are ``name(arg1, arg2, ...)``.
    parameters:
        Ordered ``(variable, type)`` pairs.  Types index into the object
        universe passed to :func:`ground_schema`.
    preconditions / add / delete:
        Atom templates over the parameters.
    constraint:
        Optional predicate over the binding dict; bindings where it returns
        ``False`` are not grounded (static inequality constraints etc.).
    cost:
        Either a constant float or a callable mapping the binding to a cost —
        this is how heterogeneous per-placement costs enter grid domains.
    """

    name: str
    parameters: tuple
    preconditions: tuple = ()
    add: tuple = ()
    delete: tuple = ()
    constraint: Optional[Callable[[Mapping[str, object]], bool]] = None
    cost: float | Callable[[Mapping[str, object]], float] = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "preconditions", tuple(self.preconditions))
        object.__setattr__(self, "add", tuple(self.add))
        object.__setattr__(self, "delete", tuple(self.delete))
        seen = set()
        for var, _typ in self.parameters:
            if not is_variable(var):
                raise ValueError(f"schema {self.name!r}: parameter {var!r} must start with '?'")
            if var in seen:
                raise ValueError(f"schema {self.name!r}: duplicate parameter {var!r}")
            seen.add(var)

    def instantiate(self, binding: Mapping[str, object]) -> Operation:
        """Ground this schema with a complete binding."""
        args = [binding[var] for var, _ in self.parameters]
        cost = self.cost(binding) if callable(self.cost) else float(self.cost)
        return Operation(
            name=f"{self.name}({', '.join(str(a) for a in args)})",
            preconditions=frozenset(_substitute(t, binding) for t in self.preconditions),
            add=frozenset(_substitute(t, binding) for t in self.add),
            delete=frozenset(_substitute(t, binding) for t in self.delete),
            cost=cost,
        )


def ground_schema(
    schema: OperatorSchema, objects: Mapping[str, Sequence[object]]
) -> list:
    """All ground operations of *schema* over typed object universe *objects*."""
    domains = []
    for var, typ in schema.parameters:
        try:
            pool = objects[typ]
        except KeyError:
            raise ValueError(
                f"schema {schema.name!r}: no objects of type {typ!r} "
                f"(known types: {sorted(objects)})"
            ) from None
        domains.append([(var, obj) for obj in pool])
    ops = []
    for combo in itertools.product(*domains):
        binding = dict(combo)
        if schema.constraint is not None and not schema.constraint(binding):
            continue
        ops.append(schema.instantiate(binding))
    return ops


def ground_all(
    schemas: Iterable[OperatorSchema], objects: Mapping[str, Sequence[object]]
) -> list:
    """Ground every schema, preserving schema order then binding order."""
    out = []
    for schema in schemas:
        out.extend(ground_schema(schema, objects))
    return out
