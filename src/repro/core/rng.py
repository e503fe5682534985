"""Seeded random-number management.

Every stochastic component in :mod:`repro` takes a
:class:`numpy.random.Generator` rather than touching global state.  This
module provides helpers to create root generators and to derive independent
per-run / per-phase streams from them, so that a single integer seed makes an
entire multi-run experiment reproducible.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["make_rng", "spawn", "spawn_many", "random_floats"]


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a root generator from an integer seed (or OS entropy)."""
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive one statistically independent child generator from *rng*.

    Uses the SeedSequence spawning protocol, so children never overlap with
    the parent stream or with each other.
    """
    return spawn_many(rng, 1)[0]


def spawn_many(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators from *rng*."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seed_seq = rng.bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - only for exotic bit generators
        seed_seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return [np.random.default_rng(s) for s in seed_seq.spawn(n)]


def random_floats(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of *n* uniform floats in [0, 1), the gene alphabet of the GA."""
    return rng.random(n)


def stream(rng: np.random.Generator) -> Iterator[np.random.Generator]:
    """Infinite iterator of freshly spawned child generators."""
    while True:
        yield spawn(rng)
