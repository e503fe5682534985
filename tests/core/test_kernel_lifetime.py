"""Kernels die with the domains that whole runs were built on.

A GA episode and a portfolio race (whose islands all decode the caller's
domain) must leave nothing in the kernel cache once the caller drops its
domain: long-lived processes build domains per unit of work.
"""

import gc
import weakref

from repro.core import GAConfig, GARun, PortfolioSpec, StrategySpec, make_rng, run_portfolio
from repro.core.parallel import SerialEvaluator
from repro.domains import HanoiDomain, SlidingTileDomain
from repro.domains.kernels import _KERNEL_CACHE


def _ga(**kw):
    kw.setdefault("generations", 6)
    return GAConfig(population_size=24, max_len=40, init_length=10, **kw)


def test_ga_episode_leaves_no_kernel():
    gc.collect()
    before = len(_KERNEL_CACHE)
    domain = SlidingTileDomain(3)
    evaluator = SerialEvaluator()
    run = GARun(domain, _ga(), make_rng(0), evaluator=evaluator)
    for _ in range(6):
        run.step()
    assert evaluator.vector_counters()["vector_rows"] > 0  # the kernel was used
    assert len(_KERNEL_CACHE) == before + 1
    ref = weakref.ref(domain)
    del domain, run, evaluator
    gc.collect()
    assert ref() is None
    assert len(_KERNEL_CACHE) == before


def test_portfolio_race_leaves_no_kernel():
    gc.collect()
    before = len(_KERNEL_CACHE)
    spec = PortfolioSpec(
        strategies=(
            StrategySpec(kind="ga", ga=_ga(generations=30)),
            StrategySpec(kind="ga", ga=_ga(generations=30, crossover="state-aware")),
            StrategySpec(kind="search", algorithm="gbfs", expansions_per_tick=8),
        ),
        interval=3,
        migration_size=2,
    )
    domain = HanoiDomain(4)
    result = run_portfolio(domain, spec, make_rng(7))
    assert result.solved
    ref = weakref.ref(domain)
    del domain, result
    gc.collect()
    assert ref() is None
    assert len(_KERNEL_CACHE) == before
