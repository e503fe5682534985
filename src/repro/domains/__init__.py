"""Planning domains: the paper's evaluation puzzles and richer worlds.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`): building a Hanoi domain loads neither the other
domains nor the STRIPS planners.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "PlanningDomain": ".protocol",
    "BlocksWorldDomain": "blocks_world",
    "blocks_world_problem": "blocks_world",
    "towers_to_atoms": "blocks_world",
    "BriefcaseDomain": "briefcase",
    "briefcase_problem": "briefcase",
    "HanoiDomain": "hanoi",
    "HanoiMove": "hanoi",
    "hanoi_strips_problem": "hanoi",
    "optimal_hanoi_moves": "hanoi",
    "StructuralHanoiDomain": "hanoi_fitness",
    "hanoi_distance": "hanoi_fitness",
    "GridNavigationDomain": "navigation",
    "NavMove": "navigation",
    "CubeMove": "pocket_cube",
    "PocketCubeDomain": "pocket_cube",
    "scrambled_state": "pocket_cube",
    "DomainEntry": "registry",
    "create": "registry",
    "domain_names": "registry",
    "get_entry": "registry",
    "list_entries": "registry",
    "register": "registry",
    "SlidingTileDomain": "sliding_tile",
    "TileMove": "sliding_tile",
    "is_solvable": "sliding_tile",
    "manhattan_distance": "sliding_tile",
    "random_solvable_start": "sliding_tile",
    "reversed_start": "sliding_tile",
    "AccurateTileDomain": "tile_heuristics",
    "PatternDatabase": "tile_heuristics",
    "accurate_tile_fitness": "tile_heuristics",
    "build_pattern_database": "tile_heuristics",
    "linear_conflict": "tile_heuristics",
    "make_disjoint_pdb_heuristic": "tile_heuristics",
    "make_linear_conflict_heuristic": "tile_heuristics",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
