"""GA-vs-classical-planner comparison driver (ablation bench).

Runs the GA planner and the deterministic/randomized baselines on the same
domain instances and tabulates solve rate, plan length, and nodes/genomes
evaluated — the paper's Section 1 claim ("forward- and backward-chaining
perform well only on small problems") made measurable.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analysis.experiments import (
    ExperimentScale,
    multiphase_config,
    hanoi_max_len,
    scale_from_env,
    tile_init_length,
    tile_max_len,
)
from repro.analysis.tables import Table
from repro.core import make_rng, run_multiphase, spawn
from repro.domains.hanoi import HanoiDomain
from repro.domains.sliding_tile import SlidingTileDomain
from repro.planning.search import (
    astar,
    breadth_first_search,
    goal_gap,
    greedy_best_first,
    hill_climbing,
    random_walk_planner,
)

__all__ = ["planner_comparison"]


def planner_comparison(
    scale: Optional[ExperimentScale] = None,
    seed: int = 23,
    hanoi_disks: int = 4,
    tile_n: int = 3,
    max_expansions: int = 200_000,
) -> Table:
    """All planners on one Hanoi and one tile instance."""
    s = scale or scale_from_env()
    root = make_rng(seed)
    table = Table(
        f"Planner comparison ({s.label} scale)",
        ["Domain", "Planner", "Solved", "Plan Length", "Work (nodes/genomes)", "Time (s)"],
    )

    instances = [
        (f"hanoi-{hanoi_disks}", HanoiDomain(hanoi_disks)),
        (f"tile-{tile_n}x{tile_n}", SlidingTileDomain(tile_n)),
    ]
    for name, domain in instances:
        if isinstance(domain, SlidingTileDomain):
            h = lambda st, d=domain: float(d.manhattan(st))
            max_len, init = tile_max_len(tile_n), tile_init_length(tile_n)
        else:
            h = goal_gap(domain, scale=float(2 ** (hanoi_disks + 1)))
            max_len, init = hanoi_max_len(hanoi_disks), domain.optimal_length

        r = breadth_first_search(domain, max_expansions=max_expansions)
        table.add_row(name, "BFS", r.solved, r.plan_length, r.expanded, round(r.elapsed_seconds, 3))

        r = astar(domain, heuristic=h, max_expansions=max_expansions)
        table.add_row(name, "A*", r.solved, r.plan_length, r.expanded, round(r.elapsed_seconds, 3))

        r = greedy_best_first(domain, heuristic=h, max_expansions=max_expansions)
        table.add_row(name, "Greedy BF (HSP2)", r.solved, r.plan_length, r.expanded, round(r.elapsed_seconds, 3))

        r = hill_climbing(domain, h, spawn(root))
        table.add_row(name, "Hill climb (HSP)", r.solved, r.plan_length, r.expanded, round(r.elapsed_seconds, 3))

        r = random_walk_planner(domain, spawn(root), walk_length=max_len, max_walks=200)
        table.add_row(name, "Random walk (Stocplan)", r.solved, r.plan_length, r.expanded, round(r.elapsed_seconds, 3))

        cfg = multiphase_config(s, max_len, init, "random")
        t0 = time.perf_counter()
        mp = run_multiphase(domain, cfg, spawn(root))
        genomes = mp.total_generations * s.population_size
        table.add_row(
            name, "GA (multi-phase)", mp.solved, mp.plan_length, genomes,
            round(time.perf_counter() - t0, 3),
        )
    return table
