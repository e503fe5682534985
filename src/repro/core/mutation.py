"""Mutation operators.

The paper's mutation (Section 3.4.3) is uniform per-gene reset: every gene
is independently replaced with a fresh uniform float with probability
``mutation_rate``.  This module draws it (:func:`sample_uniform_reset`);
:func:`repro.core.popbuffer.breed` applies the draws to the population
arena.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["sample_uniform_reset"]


def sample_uniform_reset(
    length: int, rate: float, rng: np.random.Generator
) -> Optional[tuple]:
    """Draw one genome's uniform-reset mutation: ``(indices, values)`` or None.

    This is the single source of the operator's randomness — the mask draw
    (``length`` uniforms) followed, only when the mask hit, by one
    replacement value per hit.  The generation step (:mod:`repro.core.
    popbuffer`) and the object reference step the tests hold it against
    both call it, so their RNG streams are identical by construction.
    """
    mask = rng.random(length) < rate
    if not mask.any():
        return None
    idx = np.flatnonzero(mask)
    return idx, rng.random(int(idx.size))
