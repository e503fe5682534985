"""The three crossover mechanisms (paper, Section 3.4.2).

*Random* crossover is one-point crossover with independently chosen cut
points on each parent (lengths may differ, so the cuts are independent and
children change length).  Under the indirect encoding the genes inherited to
the right of the cut are re-interpreted against whatever state the new left
context produces, which usually changes their meaning.

*State-aware* crossover fixes that: the first parent's cut is random, and
the second parent's cut is constrained to positions whose decode-state
matches the first cut's decode-state — "two states match if the same genetic
code will be mapped to the same sequence of operations from these two
states"; identical state keys satisfy this exactly.  When no matching cut
exists, no crossover is performed and both parents survive unchanged.

*Mixed* crossover tries state-aware first and falls back to random.

This module draws the cut points; :func:`repro.core.popbuffer.breed` splices
the children on the population arena and caps them at ``max_len`` genes
(MaxLen) by truncation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["sample_cut", "sample_crossover_cuts"]


def sample_cut(length: int, rng: np.random.Generator) -> int:
    """A cut position in ``[1, length - 1]``; 0/length would just swap parents.

    Length-1 genomes only admit the degenerate cut after position 0 (treated
    as position 1 would be a full copy), so we allow cut range [0, length]
    clamped to produce mixing whenever possible.
    """
    if length >= 2:
        return int(rng.integers(1, length))
    return int(rng.integers(0, length + 1))


def _key_at(plan, cut: int):
    """Decode-behaviour key at position *cut*, or ``None`` past the decode.

    ``match_keys[i]`` is the decode-equivalence key of the state before
    gene ``i``; a cut at position ``cut`` splices in new genes starting at
    index ``cut``, so the relevant key is ``match_keys[cut]``.  Positions
    beyond ``used_genes`` have no defined state (the decoder stopped
    earlier).
    """
    if plan is None:
        raise ValueError("state-aware crossover requires evaluated (decoded) parents")
    keys = plan.match_keys
    if cut < len(keys):
        return keys[cut]
    return None


def _matching_cuts(plan2, length2: int, key) -> list:
    """Candidate cuts on parent 2: defined decode states matching *key*.

    The degenerate full-copy extremes (0 and ``length2``) are excluded
    whenever an interior match exists.
    """
    keys2 = plan2.match_keys
    hi = min(length2, len(keys2) - 1)
    candidates = [j for j in range(0, hi + 1) if keys2[j] == key]
    if length2 >= 2:
        trimmed = [j for j in candidates if 1 <= j <= length2 - 1]
        if trimmed:
            candidates = trimmed
    return candidates


def sample_crossover_cuts(
    kind: str,
    length1: int,
    length2: int,
    plan1,
    plan2,
    rng: np.random.Generator,
) -> Optional[Tuple[int, int]]:
    """Draw the cut pair for one crossover, or ``None`` for "copy parents".

    This is the single source of the operators' randomness: the generation
    step (:func:`repro.core.popbuffer.breed`) and the object reference step
    the tests hold it against both call it, so their RNG streams are
    identical by construction.  *plan1*/*plan2* are the parents' decoded
    plans (only consulted by the state-matching kinds).
    """
    cut1 = sample_cut(length1, rng)
    if kind == "random":
        return cut1, sample_cut(length2, rng)
    if kind == "state-aware":
        key = _key_at(plan1, cut1)
        if key is None:
            return None
        if plan2 is None:
            raise ValueError("state-aware crossover requires evaluated (decoded) parents")
        candidates = _matching_cuts(plan2, length2, key)
        if not candidates:
            return None
        return cut1, int(candidates[int(rng.integers(0, len(candidates)))])
    if kind == "mixed":
        key = _key_at(plan1, cut1)
        if key is not None and plan2 is not None:
            candidates = _matching_cuts(plan2, length2, key)
            if candidates:
                return cut1, int(candidates[int(rng.integers(0, len(candidates)))])
        return cut1, sample_cut(length2, rng)
    raise ValueError(f"unknown crossover kind {kind!r}")
