"""A PDDL-lite text frontend for STRIPS domains and problems.

Supports the classic STRIPS fragment of PDDL — typed parameters,
conjunctive preconditions with ``not`` only in effects, ``:action``
definitions — plus a non-standard ``:cost <number>`` slot per action.
Enough to express every bundled domain as text and to let downstream users
author new ones without writing Python.

Grammar (s-expressions)::

    (define (domain blocks)
      (:predicates (on ?x ?y) (ontable ?x) (clear ?x) (handempty) (holding ?x))
      (:action pickup
        :parameters (?b - block)
        :precondition (and (clear ?b) (ontable ?b) (handempty))
        :effect (and (holding ?b)
                     (not (clear ?b)) (not (ontable ?b)) (not (handempty)))
        :cost 1))

    (define (problem stack-two)
      (:domain blocks)
      (:objects a b - block)
      (:init (ontable a) (ontable b) (clear a) (clear b) (handempty))
      (:goal (and (on a b))))

Untyped parameters/objects fall into the pseudo-type ``object``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.planning.conditions import Atom
from repro.planning.grounding import OperatorSchema
from repro.planning.problem import PlanningProblem

__all__ = ["parse_domain", "parse_problem", "load_problem", "PddlDomain", "PddlError"]


class PddlError(ValueError):
    """Raised on malformed PDDL-lite input."""


# -- tokenizer / s-expression reader ---------------------------------------------


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    token = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ";":  # comment to end of line
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            if token:
                out.append("".join(token))
                token = []
            out.append(ch)
        elif ch.isspace():
            if token:
                out.append("".join(token))
                token = []
        else:
            token.append(ch)
        i += 1
    if token:
        out.append("".join(token))
    return out


def _read(tokens: List[str], pos: int = 0):
    """Recursive-descent s-expression reader -> (tree, next_pos)."""
    if pos >= len(tokens):
        raise PddlError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise PddlError("unbalanced parentheses")
        return items, pos + 1
    if tok == ")":
        raise PddlError("unexpected ')'")
    return tok, pos + 1


def _parse_sexpr(text: str):
    tokens = _tokenize(text)
    tree, pos = _read(tokens)
    if pos != len(tokens):
        raise PddlError("trailing tokens after the top-level form")
    return tree


# -- domain ------------------------------------------------------------------------


@dataclass
class PddlDomain:
    """A parsed domain: name, declared predicates, and lifted schemas."""

    name: str
    predicates: Dict[str, int]  # name -> arity
    schemas: List[OperatorSchema]

    def ground(self, objects: Dict[str, Sequence[str]]) -> list:
        """All ground operations over a typed object universe.

        Bindings that repeat an object in a way that makes the ground
        effects self-contradictory (the same atom added and deleted, e.g.
        ``stack(a, a)``) are silently dropped — they can never appear in a
        meaningful plan and PDDL imposes no implicit inequality.
        """
        from repro.planning.grounding import ground_schema

        ops = []
        for schema in self.schemas:
            safe = OperatorSchema(
                name=schema.name,
                parameters=schema.parameters,
                preconditions=schema.preconditions,
                add=schema.add,
                delete=schema.delete,
                cost=schema.cost,
                constraint=_effects_consistent(schema),
            )
            ops.extend(ground_schema(safe, objects))
        return ops


def _effects_consistent(schema: OperatorSchema):
    """Binding filter: reject groundings whose add and delete lists overlap."""

    def ok(binding) -> bool:
        def subst(template):
            return tuple(binding.get(t, t) if isinstance(t, str) else t for t in template)

        added = {subst(t) for t in schema.add}
        deleted = {subst(t) for t in schema.delete}
        return not (added & deleted)

    return ok


def _typed_list(items: Sequence[str]) -> List[Tuple[str, str]]:
    """Parse ``a b - t1 c - t2 d`` into [(a, t1), (b, t1), (c, t2), (d, object)]."""
    out: List[Tuple[str, str]] = []
    pending: List[str] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if tok == "-":
            if i + 1 >= len(items):
                raise PddlError("dangling '-' in typed list")
            typ = items[i + 1]
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(tok)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


def _atom_from(tree) -> Atom:
    if not isinstance(tree, list) or not tree or not isinstance(tree[0], str):
        raise PddlError(f"expected an atom, got {tree!r}")
    return tuple(tree)


def _conjunction(tree) -> List:
    """``(and ...)`` or a single atom -> list of sub-trees."""
    if isinstance(tree, list) and tree and tree[0] == "and":
        return tree[1:]
    return [tree]


def _parse_action(tree) -> OperatorSchema:
    if tree[0] != ":action" or len(tree) < 2:
        raise PddlError(f"malformed action {tree!r}")
    name = tree[1]
    slots: Dict[str, object] = {}
    i = 2
    while i < len(tree):
        key = tree[i]
        if not isinstance(key, str) or not key.startswith(":"):
            raise PddlError(f"expected a :keyword in action {name!r}, got {key!r}")
        if i + 1 >= len(tree):
            raise PddlError(f"missing value for {key} in action {name!r}")
        slots[key] = tree[i + 1]
        i += 2

    params = _typed_list(slots.get(":parameters", []))
    for var, _typ in params:
        if not var.startswith("?"):
            raise PddlError(f"action {name!r}: parameter {var!r} must start with '?'")

    preconditions = []
    for sub in _conjunction(slots.get(":precondition", ["and"])):
        if isinstance(sub, list) and sub and sub[0] == "not":
            raise PddlError(
                f"action {name!r}: negative preconditions are not supported "
                "in the STRIPS fragment"
            )
        preconditions.append(_atom_from(sub))

    add, delete = [], []
    for sub in _conjunction(slots.get(":effect", ["and"])):
        if isinstance(sub, list) and sub and sub[0] == "not":
            if len(sub) != 2:
                raise PddlError(f"action {name!r}: malformed (not ...) effect")
            delete.append(_atom_from(sub[1]))
        else:
            add.append(_atom_from(sub))
    if not add and not delete:
        raise PddlError(f"action {name!r} has no effect")

    cost = 1.0
    if ":cost" in slots:
        try:
            cost = float(slots[":cost"])  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise PddlError(f"action {name!r}: :cost must be a number") from None

    return OperatorSchema(
        name=name,
        parameters=tuple(params),
        preconditions=tuple(preconditions),
        add=tuple(add),
        delete=tuple(delete),
        cost=cost,
    )


def parse_domain(text: str) -> PddlDomain:
    """Parse a ``(define (domain ...) ...)`` form."""
    tree = _parse_sexpr(text)
    if not (isinstance(tree, list) and len(tree) >= 2 and tree[0] == "define"):
        raise PddlError("expected (define (domain ...) ...)")
    head = tree[1]
    if not (isinstance(head, list) and len(head) == 2 and head[0] == "domain"):
        raise PddlError("expected (domain <name>) after define")
    name = head[1]
    predicates: Dict[str, int] = {}
    schemas: List[OperatorSchema] = []
    for section in tree[2:]:
        if not isinstance(section, list) or not section:
            raise PddlError(f"malformed domain section {section!r}")
        if section[0] == ":predicates":
            for pred in section[1:]:
                p = _atom_from(pred)
                # Arity counts parameters only (typed markers stripped).
                args = [a for a in p[1:] if a != "-"]
                predicates[p[0]] = len(_typed_list(list(p[1:])))
        elif section[0] == ":action":
            schemas.append(_parse_action(section))
        elif section[0] == ":requirements":
            unsupported = [r for r in section[1:] if r not in (":strips", ":typing")]
            if unsupported:
                raise PddlError(f"unsupported requirements: {unsupported}")
        else:
            raise PddlError(f"unsupported domain section {section[0]!r}")
    if not schemas:
        raise PddlError(f"domain {name!r} declares no actions")
    return PddlDomain(name=name, predicates=predicates, schemas=schemas)


# -- problem ------------------------------------------------------------------------


def parse_problem(text: str, domain: PddlDomain) -> PlanningProblem:
    """Parse a ``(define (problem ...) ...)`` form against *domain*."""
    tree = _parse_sexpr(text)
    if not (isinstance(tree, list) and len(tree) >= 2 and tree[0] == "define"):
        raise PddlError("expected (define (problem ...) ...)")
    head = tree[1]
    if not (isinstance(head, list) and len(head) == 2 and head[0] == "problem"):
        raise PddlError("expected (problem <name>) after define")
    name = head[1]

    objects: Dict[str, List[str]] = {}
    initial: List[Atom] = []
    goal: List[Atom] = []
    domain_name: Optional[str] = None
    for section in tree[2:]:
        if not isinstance(section, list) or not section:
            raise PddlError(f"malformed problem section {section!r}")
        key = section[0]
        if key == ":domain":
            domain_name = section[1]
        elif key == ":objects":
            for obj, typ in _typed_list(section[1:]):
                objects.setdefault(typ, []).append(obj)
        elif key == ":init":
            initial = [_atom_from(a) for a in section[1:]]
        elif key == ":goal":
            if len(section) != 2:
                raise PddlError("goal must be a single (and ...) or atom")
            goal = [_atom_from(a) for a in _conjunction(section[1])]
        else:
            raise PddlError(f"unsupported problem section {key!r}")
    if domain_name is not None and domain_name != domain.name:
        raise PddlError(
            f"problem {name!r} targets domain {domain_name!r}, got {domain.name!r}"
        )

    # Untyped objects are also visible to untyped ("object") parameters.
    if "object" not in objects:
        objects["object"] = sorted({o for pool in objects.values() for o in pool})

    operations = domain.ground(objects)
    conditions = set(initial) | set(goal)
    for op in operations:
        conditions |= op.preconditions | op.add | op.delete
    return PlanningProblem(
        conditions=frozenset(conditions),
        operations=tuple(operations),
        initial=frozenset(initial),
        goal=frozenset(goal),
        name=name,
    )


def load_problem(domain_text: str, problem_text: str) -> PlanningProblem:
    """Convenience: parse domain + problem in one call."""
    return parse_problem(problem_text, parse_domain(domain_text))
