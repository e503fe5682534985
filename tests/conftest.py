"""Shared fixtures for the test suite.

The fallback per-test timeout shim lives in the repo-root ``conftest.py``
so it also covers ``benchmarks/``.
"""

import pytest

from repro.core import GAConfig, make_rng
from repro.domains import HanoiDomain, SlidingTileDomain


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def hanoi3():
    return HanoiDomain(3)


@pytest.fixture
def hanoi5():
    return HanoiDomain(5)


@pytest.fixture
def tile3():
    return SlidingTileDomain(3)


@pytest.fixture
def small_config():
    """A config small enough for sub-second GA runs in tests."""
    return GAConfig(
        population_size=20,
        generations=30,
        max_len=64,
        init_length=16,
    )
