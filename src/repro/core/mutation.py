"""Mutation operators.

The paper's mutation (Section 3.4.3) is uniform per-gene reset: every gene
is independently replaced with a fresh uniform float with probability
``mutation_rate``.  This module draws it (:func:`sample_uniform_reset`);
:func:`repro.core.popbuffer.breed` applies the draws to the population
arena.  Two structural operators — gene insertion and deletion — are
provided for the variable-length ablations; they are off by default.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.individual import Individual

__all__ = [
    "sample_uniform_reset",
    "insertion_mutation",
    "deletion_mutation",
]


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


def _mutated_child(ind: Individual, genes: np.ndarray, first_changed: int) -> Individual:
    """Build the post-mutation child, carrying incremental-decode lineage.

    Genes before *first_changed* are untouched, so the child keeps the best
    prefix it can: the input's own pending prefix (tightened to the first
    change) when it was an unevaluated offspring, or the input's decoded
    plan when it was an evaluated parent copy.
    """
    if ind.prefix_plan is not None and ind.dirty_from is not None:
        prefix, dirty = ind.prefix_plan, min(ind.dirty_from, first_changed)
    elif ind.decoded is not None:
        prefix, dirty = ind.decoded, first_changed
    else:
        prefix, dirty = None, 0
    if prefix is None or dirty <= 0:
        return Individual(genes=genes)
    return Individual(genes=genes, dirty_from=min(dirty, int(genes.size)), prefix_plan=prefix)


def insertion_mutation(
    ind: Individual,
    rng: np.random.Generator,
    max_len: Optional[int] = None,
) -> Individual:
    """Insert one fresh gene at a random position (length +1).

    No-op when the genome is already at ``max_len``.
    """
    if max_len is not None and len(ind) >= max_len:
        return ind
    pos = int(rng.integers(0, len(ind) + 1))
    genes = np.insert(ind.genes, pos, rng.random())
    return _mutated_child(ind, genes, pos)


def deletion_mutation(ind: Individual, rng: np.random.Generator) -> Individual:
    """Delete one gene at a random position (length -1); no-op at length 1."""
    if len(ind) <= 1:
        return ind
    pos = int(rng.integers(0, len(ind)))
    genes = np.delete(ind.genes, pos)
    return _mutated_child(ind, genes, pos)
