"""Tournament selection (paper, Section 3.4.1: tournament of size 2).

Each tournament draws ``k`` individuals uniformly with replacement and keeps
the fittest ("the individual with the higher fitness value wins and remains
in the population").  Selection runs on a population's total-fitness vector
and returns parent row indices; individuals may (and generally do) win more
than once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tournament_winner_indices"]


def tournament_winner_indices(
    fitness: np.ndarray,
    n: int,
    rng: np.random.Generator,
    tournament_size: int = 2,
) -> np.ndarray:
    """Indices of *n* tournament winners over a total-fitness vector.

    One batched ``rng.integers`` draw samples every tournament at once; the
    winner of each row is a vectorized argmax over the gathered fitness
    matrix.  ``np.argmax`` keeps the first maximum, exactly like a per-row
    loop's strict-greater comparison, so the winners (and the RNG stream)
    are bit-identical to the scalar implementation.  The generation step
    (:func:`repro.core.popbuffer.select_parent_indices`) calls it.
    """
    if tournament_size < 1:
        raise ValueError(f"tournament size must be >= 1, got {tournament_size}")
    size = int(fitness.shape[0])
    draws = rng.integers(0, size, size=(n, tournament_size))
    winners = np.argmax(fitness[draws], axis=1)
    return draws[np.arange(n), winners]
