"""Graphplan (Blum & Furst 1997) over propositional STRIPS problems.

Builds the layered planning graph — alternating proposition and action
levels with binary mutex relations — then extracts a parallel plan by
levelled backward search with memoised failure sets.  The returned plan is
serialised (actions within a level in arbitrary order: they are pairwise
non-mutex, so any order is valid).

This is the strongest deterministic baseline the paper cites ("Graphplan
outperforms other general planning algorithms in some problem domains").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.planning.conditions import Atom
from repro.planning.operation import Operation
from repro.planning.problem import PlanningProblem
from repro.planning.search.classical import SearchResult

__all__ = ["graphplan", "PlanningGraph"]


@dataclass
class _Level:
    """One action level and the proposition level it produces."""

    actions: List[Operation]
    action_mutex: Set[Tuple[int, int]]  # indices into ``actions``
    props: List[Atom]
    prop_index: Dict[Atom, int]
    prop_mutex: Set[Tuple[int, int]]  # indices into ``props``
    achievers: Dict[Atom, List[int]]  # prop -> action indices that add it


def _noop(prop: Atom) -> Operation:
    """Maintenance (frame) action: carries *prop* forward one level."""
    return Operation(
        name=f"__noop__{prop!r}",
        preconditions=frozenset([prop]),
        add=frozenset([prop]),
        delete=frozenset(),
        cost=0.0,
    )


def _pair(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


class PlanningGraph:
    """The layered graph; grown one level at a time by :meth:`expand`."""

    def __init__(self, problem: PlanningProblem) -> None:
        self.problem = problem
        props = sorted(problem.initial, key=repr)  # deterministic ordering
        self.levels: List[_Level] = [
            _Level(
                actions=[],
                action_mutex=set(),
                props=props,
                prop_index={p: i for i, p in enumerate(props)},
                prop_mutex=set(),
                achievers={},
            )
        ]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def _interfere(self, a: Operation, b: Operation) -> bool:
        """Static interference: one deletes a precondition or add of the other."""
        if a.delete & (b.preconditions | b.add):
            return True
        if b.delete & (a.preconditions | a.add):
            return True
        return False

    def expand(self) -> None:
        """Add one action level + the following proposition level."""
        prev = self.levels[-1]
        prev_props = set(prev.props)
        # Applicable actions: preconditions present and pairwise non-mutex.
        actions: List[Operation] = []
        for op in self.problem.operations:
            if not op.preconditions <= prev_props:
                continue
            if self._pre_mutex(prev, op.preconditions):
                continue
            actions.append(op)
        for p in prev.props:
            actions.append(_noop(p))

        # Action mutexes: interference, or competing needs (mutex precs).
        action_mutex: Set[Tuple[int, int]] = set()
        for i in range(len(actions)):
            for j in range(i + 1, len(actions)):
                a, b = actions[i], actions[j]
                if self._interfere(a, b) or self._precs_mutex(prev, a, b):
                    action_mutex.add((i, j))

        # Next proposition level.
        achievers: Dict[Atom, List[int]] = {}
        for idx, a in enumerate(actions):
            for p in a.add:
                achievers.setdefault(p, []).append(idx)
        props = sorted(achievers, key=repr)
        prop_index = {p: i for i, p in enumerate(props)}

        # Proposition mutexes: every pair of achievers is mutex.
        prop_mutex: Set[Tuple[int, int]] = set()
        for i in range(len(props)):
            for j in range(i + 1, len(props)):
                ach_i = achievers[props[i]]
                ach_j = achievers[props[j]]
                all_mutex = True
                for ai in ach_i:
                    for aj in ach_j:
                        if ai == aj or _pair(ai, aj) not in action_mutex:
                            all_mutex = False
                            break
                    if not all_mutex:
                        break
                if all_mutex:
                    prop_mutex.add((i, j))

        self.levels.append(
            _Level(
                actions=actions,
                action_mutex=action_mutex,
                props=props,
                prop_index=prop_index,
                prop_mutex=prop_mutex,
                achievers=achievers,
            )
        )

    def _pre_mutex(self, level: _Level, preconditions: FrozenSet[Atom]) -> bool:
        pres = sorted(preconditions, key=repr)
        for i in range(len(pres)):
            for j in range(i + 1, len(pres)):
                pi = level.prop_index.get(pres[i])
                pj = level.prop_index.get(pres[j])
                if pi is None or pj is None:
                    return True
                if _pair(pi, pj) in level.prop_mutex:
                    return True
        return False

    def _precs_mutex(self, prev: _Level, a: Operation, b: Operation) -> bool:
        for pa in a.preconditions:
            ia = prev.prop_index.get(pa)
            for pb in b.preconditions:
                ib = prev.prop_index.get(pb)
                if ia is not None and ib is not None and ia != ib:
                    if _pair(ia, ib) in prev.prop_mutex:
                        return True
        return False

    def goals_reachable(self) -> bool:
        last = self.levels[-1]
        goal = sorted(self.problem.goal, key=repr)
        for g in goal:
            if g not in last.prop_index:
                return False
        for i in range(len(goal)):
            for j in range(i + 1, len(goal)):
                gi, gj = last.prop_index[goal[i]], last.prop_index[goal[j]]
                if _pair(gi, gj) in last.prop_mutex:
                    return False
        return True

    def levelled_off(self) -> bool:
        """Fixpoint test: two identical consecutive proposition levels."""
        if len(self.levels) < 2:
            return False
        a, b = self.levels[-2], self.levels[-1]
        return a.props == b.props and a.prop_mutex == b.prop_mutex


def _extract(
    graph: PlanningGraph,
    goals: FrozenSet[Atom],
    level: int,
    nogood: Dict[int, Set[FrozenSet[Atom]]],
) -> Optional[List[List[Operation]]]:
    """Backward plan extraction with memoised unsatisfiable goal sets."""
    if level == 0:
        return [] if goals <= set(graph.levels[0].props) else None
    if goals in nogood.setdefault(level, set()):
        return None
    lvl = graph.levels[level]

    goal_list = sorted(goals, key=repr)

    def choose(i: int, chosen: List[int], achieved: Set[Atom]):
        if i == len(goal_list):
            subgoals = frozenset().union(*(lvl.actions[a].preconditions for a in chosen)) if chosen else frozenset()
            rest = _extract(graph, frozenset(subgoals), level - 1, nogood)
            if rest is None:
                return None
            step = [lvl.actions[a] for a in chosen if not lvl.actions[a].name.startswith("__noop__")]
            return rest + [step]
        g = goal_list[i]
        if g in achieved:
            return choose(i + 1, chosen, achieved)
        for a in lvl.achievers.get(g, ()):
            if any(_pair(a, c) in lvl.action_mutex for c in chosen if c != a):
                continue
            result = choose(i + 1, chosen + [a], achieved | set(lvl.actions[a].add))
            if result is not None:
                return result
        return None

    result = choose(0, [], set())
    if result is None:
        nogood[level].add(goals)
    return result


def graphplan(
    problem: PlanningProblem,
    max_levels: int = 50,
) -> SearchResult:
    """Run Graphplan; returns a serialised plan in a :class:`SearchResult`.

    ``expanded`` counts graph levels built; ``generated`` counts actions
    instantiated across all levels.
    """
    t0 = time.perf_counter()
    graph = PlanningGraph(problem)
    nogood: Dict[int, Set[FrozenSet[Atom]]] = {}
    levels_built = 0
    prev_nogood_at_leveloff: Optional[int] = None
    while True:
        if graph.goals_reachable():
            steps = _extract(graph, frozenset(problem.goal), graph.n_levels - 1, nogood)
            if steps is not None:
                plan = tuple(op for step in steps for op in step)
                generated = sum(len(l.actions) for l in graph.levels)
                return SearchResult(
                    plan,
                    float(sum(op.cost for op in plan)),
                    levels_built,
                    generated,
                    False,
                    time.perf_counter() - t0,
                )
        if graph.levelled_off():
            # Standard termination (Blum & Furst): the graph has levelled off
            # AND the memoised-failure table at the last level has stopped
            # growing between consecutive extraction attempts.
            n_nogood = len(nogood.get(graph.n_levels - 1, ()))
            if prev_nogood_at_leveloff is not None and n_nogood == prev_nogood_at_leveloff:
                generated = sum(len(l.actions) for l in graph.levels)
                return SearchResult(
                    None, math.inf, levels_built, generated, True, time.perf_counter() - t0
                )
            prev_nogood_at_leveloff = n_nogood
        if graph.n_levels > max_levels:
            generated = sum(len(l.actions) for l in graph.levels)
            return SearchResult(None, math.inf, levels_built, generated, False, time.perf_counter() - t0)
        graph.expand()
        levels_built += 1
