"""Blocks World — the domain the GenPlan seeding study used (paper §2).

Classic four-operator formulation with an explicit gripper: ``pickup`` /
``putdown`` (table) and ``stack`` / ``unstack`` (block-on-block).  Provided
both as a grounded STRIPS problem (for the classical planners and
Graphplan) and pre-wrapped as a GA-plannable domain with a goal fitness
counting satisfied goal atoms.
"""

from __future__ import annotations

from typing import Sequence

from repro.planning.adapter import StripsDomainAdapter
from repro.planning.conditions import atom
from repro.planning.grounding import OperatorSchema, ground_all
from repro.planning.problem import PlanningProblem

__all__ = ["blocks_world_problem", "BlocksWorldDomain", "towers_to_atoms"]


def _schemas() -> list:
    pickup = OperatorSchema(
        name="pickup",
        parameters=(("?b", "block"),),
        preconditions=(atom("clear", "?b"), atom("ontable", "?b"), atom("handempty")),
        add=(atom("holding", "?b"),),
        delete=(atom("clear", "?b"), atom("ontable", "?b"), atom("handempty")),
    )
    putdown = OperatorSchema(
        name="putdown",
        parameters=(("?b", "block"),),
        preconditions=(atom("holding", "?b"),),
        add=(atom("clear", "?b"), atom("ontable", "?b"), atom("handempty")),
        delete=(atom("holding", "?b"),),
    )
    stack = OperatorSchema(
        name="stack",
        parameters=(("?b", "block"), ("?under", "block")),
        preconditions=(atom("holding", "?b"), atom("clear", "?under")),
        add=(atom("on", "?b", "?under"), atom("clear", "?b"), atom("handempty")),
        delete=(atom("holding", "?b"), atom("clear", "?under")),
        constraint=lambda b: b["?b"] != b["?under"],
    )
    unstack = OperatorSchema(
        name="unstack",
        parameters=(("?b", "block"), ("?under", "block")),
        preconditions=(atom("on", "?b", "?under"), atom("clear", "?b"), atom("handempty")),
        add=(atom("holding", "?b"), atom("clear", "?under")),
        delete=(atom("on", "?b", "?under"), atom("clear", "?b"), atom("handempty")),
        constraint=lambda b: b["?b"] != b["?under"],
    )
    return [pickup, putdown, stack, unstack]


def towers_to_atoms(towers: Sequence[Sequence[str]]) -> set:
    """Atoms describing a configuration given as towers (bottom-to-top lists).

    ``[["a", "b"], ["c"]]`` means b on a (a on the table) and c on the table.
    """
    atoms = {atom("handempty")}
    seen: set = set()
    for tower in towers:
        if not tower:
            raise ValueError("towers must be non-empty lists of block names")
        for blk in tower:
            if blk in seen:
                raise ValueError(f"block {blk!r} appears twice")
            seen.add(blk)
        atoms.add(atom("ontable", tower[0]))
        for below, above in zip(tower, tower[1:]):
            atoms.add(atom("on", above, below))
        atoms.add(atom("clear", tower[-1]))
    return atoms


def blocks_world_problem(
    initial_towers: Sequence[Sequence[str]],
    goal_towers: Sequence[Sequence[str]],
    name: str = "blocks-world",
) -> PlanningProblem:
    """Grounded STRIPS Blocks World between two tower configurations.

    Goal atoms are the full description of *goal_towers* minus the dynamic
    gripper/clear details that any completed rearrangement implies — we keep
    ``on``/``ontable`` atoms only, which pins the configuration exactly.
    """
    blocks = sorted({b for t in initial_towers for b in t})
    goal_blocks = sorted({b for t in goal_towers for b in t})
    if blocks != goal_blocks:
        raise ValueError(
            f"initial blocks {blocks} and goal blocks {goal_blocks} differ"
        )
    operations = ground_all(_schemas(), {"block": blocks})
    initial = towers_to_atoms(initial_towers)
    goal = {
        a for a in towers_to_atoms(goal_towers) if a[0] in ("on", "ontable")
    }
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


class BlocksWorldDomain(StripsDomainAdapter):
    """GA-plannable Blocks World (goal fitness = satisfied goal fraction)."""

    def __init__(
        self,
        initial_towers: Sequence[Sequence[str]],
        goal_towers: Sequence[Sequence[str]],
    ) -> None:
        super().__init__(blocks_world_problem(initial_towers, goal_towers))
