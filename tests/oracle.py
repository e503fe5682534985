"""Test-only reference evaluator: the paper's decode rule, nothing else.

Every production evaluator in :mod:`repro.core.parallel` promises results
bit-identical to decoding each genome with :func:`repro.core.encoding.decode`
and scoring the plan with the context's fitness function (DESIGN.md §1).
:class:`ReferenceEvaluator` does exactly that, one Individual at a time, so
the equivalence suites hold the decode engine, the vector walk and the pool
against it.  Batched runs reach it through the base
:meth:`~repro.core.parallel.Evaluator.evaluate_buffer` bridge.
"""

from repro.core.encoding import DecodeCache, decode
from repro.core.parallel import Evaluator


class ReferenceEvaluator(Evaluator):
    """Decode every pending Individual from gene 0 and score it."""

    def __init__(self) -> None:
        self._cache = None

    def evaluate(self, population, context) -> None:
        if self._cache is None or self._cache.domain is not context.domain:
            self._cache = DecodeCache(context.domain)
        for ind in population:
            if ind.is_evaluated:
                continue
            ind.decoded = decode(
                ind.genes,
                context.domain,
                context.start_state,
                truncate_at_goal=context.truncate_at_goal,
                cache=self._cache,
            )
            ind.fitness = context.fitness(ind.decoded)
