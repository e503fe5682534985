"""Stronger sliding-tile heuristics from the paper's related work.

Korf & Taylor (1996) improved Manhattan distance with the *linear conflict*
heuristic; Korf & Felner (2002) introduced *disjoint pattern database*
heuristics.  Both are implemented here, both admissible, and both pluggable
into the classical planners — and, normalised, into the GA's goal fitness
(the paper's future-work item "more accurate goal fitness functions").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.domains.sliding_tile import SlidingTileDomain

__all__ = [
    "linear_conflict",
    "make_linear_conflict_heuristic",
    "PatternDatabase",
    "build_pattern_database",
    "make_disjoint_pdb_heuristic",
    "accurate_tile_fitness",
]


def linear_conflict(state: Sequence[int], goal: Sequence[int], n: int) -> int:
    """Manhattan distance plus 2 per linear conflict (admissible).

    Two tiles are in linear conflict when they are both in their goal row
    (or column), their goal positions are in that same row (column), and
    they are reversed relative to each other — one must step aside, costing
    two extra moves.
    """
    goal_pos = {tile: divmod(i, n) for i, tile in enumerate(goal)}
    manhattan = 0
    for i, tile in enumerate(state):
        if tile == 0:
            continue
        r, c = divmod(i, n)
        gr, gc = goal_pos[tile]
        manhattan += abs(r - gr) + abs(c - gc)

    # Per line, the minimum number of tiles that must temporarily leave the
    # line is (tiles in the line) minus the longest subsequence already in
    # relative order — counting raw reversed pairs would overestimate and
    # break admissibility (e.g. a fully reversed triple has 3 reversed
    # pairs but only 2 tiles need to step aside).
    evictions = 0
    for r in range(n):
        goals = [
            goal_pos[t][1]
            for c in range(n)
            for t in (state[r * n + c],)
            if t != 0 and goal_pos[t][0] == r
        ]
        evictions += len(goals) - _longest_increasing(goals)
    for c in range(n):
        goals = [
            goal_pos[t][0]
            for r in range(n)
            for t in (state[r * n + c],)
            if t != 0 and goal_pos[t][1] == c
        ]
        evictions += len(goals) - _longest_increasing(goals)
    return manhattan + 2 * evictions


def _longest_increasing(seq: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence (n is tiny)."""
    if not seq:
        return 0
    best = [1] * len(seq)
    for i in range(1, len(seq)):
        for j in range(i):
            if seq[j] < seq[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def make_linear_conflict_heuristic(domain: SlidingTileDomain) -> Callable:
    """``h(state)`` closure over the domain's goal."""
    goal, n = domain.goal_state, domain.n

    def h(state) -> float:
        return float(linear_conflict(state, goal, n))

    return h


class PatternDatabase:
    """Exact distances for a tile subset, every other tile abstracted away.

    Keys are the positions of the pattern tiles (plus nothing else — the
    blank is abstracted too, which keeps the table small and the estimate
    admissible for the *moves-of-pattern-tiles* cost measure used by
    disjoint PDBs: only moves of pattern tiles are counted, so values from
    databases over disjoint tile sets may be summed).
    """

    def __init__(self, n: int, pattern: Tuple[int, ...], table: Dict[tuple, int]) -> None:
        self.n = n
        self.pattern = pattern
        self.table = table

    def key_of(self, state: Sequence[int]) -> tuple:
        pos = {t: i for i, t in enumerate(state)}
        return tuple(pos[t] for t in self.pattern)

    def lookup(self, state: Sequence[int]) -> int:
        value = self.table.get(self.key_of(state))
        if value is None:
            raise KeyError(
                f"pattern positions {self.key_of(state)} missing from the PDB "
                "(state not a permutation of the goal?)"
            )
        return value

    def __len__(self) -> int:
        return len(self.table)


def build_pattern_database(
    n: int, pattern: Sequence[int], goal: Optional[Sequence[int]] = None
) -> PatternDatabase:
    """Backward BFS from the goal over the pattern projection.

    State of the search: (pattern tile positions, blank position).  Cost
    counts only pattern-tile moves (blank-only moves are free), which is
    what makes disjoint PDB values additive.  The stored table maxes over
    blank positions, keyed by pattern positions alone.
    """
    if goal is None:
        goal = tuple(range(1, n * n)) + (0,)
    pattern = tuple(sorted(pattern))
    if not pattern or any(t <= 0 or t >= n * n for t in pattern):
        raise ValueError(f"pattern must name tiles in 1..{n * n - 1}, got {pattern}")
    pos_of = {t: i for i, t in enumerate(goal)}
    start_positions = tuple(pos_of[t] for t in pattern)
    blank_start = pos_of[0]

    # Dijkstra with 0/1 weights -> deque-based 0-1 BFS.
    table: Dict[tuple, int] = {}
    best: Dict[tuple, int] = {(start_positions, blank_start): 0}
    queue = deque([(start_positions, blank_start)])
    neighbours = _neighbour_table(n)

    while queue:
        key = queue.popleft()
        positions, blank = key
        cost = best[key]
        stored = table.get(positions)
        if stored is None or cost < stored:
            table[positions] = cost
        occupied = {p: idx for idx, p in enumerate(positions)}
        for nb in neighbours[blank]:
            if nb in occupied:
                # Moving a pattern tile into the blank: cost 1.
                idx = occupied[nb]
                new_positions = list(positions)
                new_positions[idx] = blank
                new_key = (tuple(new_positions), nb)
                if cost + 1 < best.get(new_key, 1 << 30):
                    best[new_key] = cost + 1
                    queue.append(new_key)
            else:
                # Moving a non-pattern tile (abstracted): cost 0.
                new_key = (positions, nb)
                if cost < best.get(new_key, 1 << 30):
                    best[new_key] = cost
                    queue.appendleft(new_key)

    return PatternDatabase(n=n, pattern=pattern, table=table)


def _neighbour_table(n: int) -> list:
    out = []
    for i in range(n * n):
        r, c = divmod(i, n)
        nbs = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < n and 0 <= nc < n:
                nbs.append(nr * n + nc)
        out.append(tuple(nbs))
    return out


def make_disjoint_pdb_heuristic(
    domain: SlidingTileDomain, partition: Optional[Sequence[Sequence[int]]] = None
) -> Callable:
    """Sum of disjoint PDB lookups (admissible; Korf & Felner 2002).

    Default partition: 3×3 → {1,2,3,4} + {5,6,7,8}; 4×4 → rows-ish split
    {1,2,3,4,5} + {6,7,8,9,10} + {11,12,13,14,15} (a 5-5-5 partition keeps
    the tables small enough to build in seconds).
    """
    n = domain.n
    if partition is None:
        tiles = list(range(1, n * n))
        if n == 3:
            partition = [tiles[:4], tiles[4:]]
        else:
            third = len(tiles) // 3
            partition = [tiles[:third], tiles[third : 2 * third], tiles[2 * third :]]
    flat = sorted(t for group in partition for t in group)
    if flat != list(range(1, n * n)):
        raise ValueError(f"partition must cover tiles 1..{n * n - 1} exactly, got {partition}")
    dbs = [build_pattern_database(n, group, domain.goal_state) for group in partition]

    def h(state) -> float:
        return float(sum(db.lookup(state) for db in dbs))

    return h


def accurate_tile_fitness(
    domain: SlidingTileDomain, heuristic: Optional[Callable] = None
) -> Callable:
    """A drop-in, sharper goal fitness for the GA: ``1 - h(s)/bound``.

    The paper closes with "our results confirm that an accurate goal
    fitness function is essential"; this wraps any admissible heuristic
    (default: linear conflict) into the normalised [0, 1] form the GA
    expects.  The bound stretches the Manhattan bound by the maximum
    possible conflict surcharge so the value stays in range.
    """
    h = heuristic if heuristic is not None else make_linear_conflict_heuristic(domain)
    n = domain.n
    # Each row/column admits at most C(n,2) conflicts at 2 moves each.
    conflict_bound = 2 * 2 * n * (n * (n - 1) // 2)
    bound = domain.distance_bound + conflict_bound

    def fitness(state) -> float:
        value = 1.0 - h(state) / bound
        return min(1.0, max(0.0, value))

    return fitness


class AccurateTileDomain(SlidingTileDomain):
    """Sliding-tile domain whose goal fitness uses a sharper heuristic.

    Same puzzle, same operations — only the GA's gradient changes.  Used by
    the accurate-fitness ablation to test the paper's closing claim.
    """

    def __init__(self, n: int, heuristic_name: str = "linear-conflict", **kw) -> None:
        super().__init__(n, **kw)
        if heuristic_name == "linear-conflict":
            h = make_linear_conflict_heuristic(self)
        elif heuristic_name == "pdb":
            h = make_disjoint_pdb_heuristic(self)
        else:
            raise ValueError(
                f"heuristic must be 'linear-conflict' or 'pdb', got {heuristic_name!r}"
            )
        self._accurate_fitness = accurate_tile_fitness(self, h)
        self.name = f"tile-{n}x{n}-{heuristic_name}"

    def goal_fitness(self, state) -> float:
        return self._accurate_fitness(state)
