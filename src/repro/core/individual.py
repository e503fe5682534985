"""Individuals: variable-length float genomes with cached evaluation.

An individual owns its genome (a read-only ``float64`` array) and, once
evaluated, its decoded phenotype and fitness.  Genomes are immutable after
construction — crossover and mutation build new arrays — so decoded results
can never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.encoding import DecodedPlan
from repro.core.fitness import FitnessResult

__all__ = ["Individual"]


@dataclass
class Individual:
    """One candidate solution.

    ``decoded`` and ``fitness`` are filled by the evaluator; they are
    ``None`` for freshly created offspring.

    ``dirty_from`` / ``prefix_plan`` carry incremental-decode lineage for
    unevaluated offspring: genes before ``dirty_from`` are byte-identical
    to the prefix of the parent genome that produced ``prefix_plan``, so
    the decode engine can resume from the parent's retained walk instead of
    the start state.  Both are conservative hints — the evaluator falls
    back to a full decode whenever they are absent — and are cleared once
    the individual has been evaluated.
    """

    genes: np.ndarray
    decoded: Optional[DecodedPlan] = None
    fitness: Optional[FitnessResult] = None
    dirty_from: Optional[int] = None
    prefix_plan: Optional[DecodedPlan] = None

    def __post_init__(self) -> None:
        genes = np.asarray(self.genes, dtype=np.float64)
        if genes.ndim != 1:
            raise ValueError(f"genome must be one-dimensional, got shape {genes.shape}")
        if genes.size == 0:
            raise ValueError("genome must contain at least one gene")
        if float(genes.min(initial=0.0)) < 0.0 or float(genes.max(initial=0.0)) >= 1.0 + 1e-12:
            raise ValueError("genes must lie in [0, 1)")
        if genes.flags.writeable:
            # Defensive copy of mutable input; already-frozen arrays (e.g.
            # from copy()/with-shared-genes paths) are shared as-is.
            genes = genes.copy()
            genes.setflags(write=False)
        self.genes = genes

    def __len__(self) -> int:
        return int(self.genes.size)

    @property
    def is_evaluated(self) -> bool:
        return self.fitness is not None and self.decoded is not None

    @property
    def total_fitness(self) -> float:
        if self.fitness is None:
            raise ValueError("individual has not been evaluated")
        return self.fitness.total

    @property
    def goal_fitness(self) -> float:
        if self.fitness is None:
            raise ValueError("individual has not been evaluated")
        return self.fitness.goal

    def copy(self) -> "Individual":
        """A copy sharing the (immutable) genome and evaluation results."""
        return Individual(
            genes=self.genes,
            decoded=self.decoded,
            fitness=self.fitness,
            dirty_from=self.dirty_from,
            prefix_plan=self.prefix_plan,
        )

    def with_genes(self, genes: np.ndarray) -> "Individual":
        """A new, unevaluated individual with a different genome."""
        return Individual(genes=genes)

    @staticmethod
    def random(length: int, rng: np.random.Generator) -> "Individual":
        """A random genome of the given length (Section 3.2)."""
        if length < 1:
            raise ValueError(f"genome length must be >= 1, got {length}")
        return Individual(genes=rng.random(length))

    def sort_key(self) -> tuple:
        """Ranking key: goal fitness first, then total fitness.

        The paper reports "the individual with the highest goal fitness in
        each run"; ties break on the combined fitness (which folds in cost).
        """
        if self.fitness is None:
            raise ValueError("individual has not been evaluated")
        return (self.fitness.goal, self.fitness.total)
