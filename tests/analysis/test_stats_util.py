"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis import bootstrap_ci, mann_whitney, mean_ci, summarize
from repro.core import make_rng


class TestMeanCI:
    def test_contains_mean(self):
        ci = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert ci.low <= ci.mean <= ci.high
        assert ci.mean == pytest.approx(2.5)
        assert ci.n == 4

    def test_single_value_degenerate(self):
        ci = mean_ci([5.0])
        assert ci.low == ci.mean == ci.high == 5.0

    def test_constant_sample_degenerate(self):
        ci = mean_ci([2.0, 2.0, 2.0])
        assert ci.low == ci.high == 2.0

    def test_higher_confidence_wider(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = mean_ci(data, confidence=0.80)
        wide = mean_ci(data, confidence=0.99)
        assert (wide.high - wide.low) > (narrow.high - narrow.low)

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=1.5)

    def test_str(self):
        assert "n=2" in str(mean_ci([1.0, 2.0]))

    def test_coverage_sanity(self):
        """~95% of 95% CIs over N(0,1) samples should contain 0."""
        rng = make_rng(0)
        hits = 0
        for _ in range(300):
            ci = mean_ci(rng.normal(0, 1, size=15))
            hits += ci.low <= 0 <= ci.high
        assert 0.90 <= hits / 300 <= 0.99


class TestBootstrap:
    def test_contains_point_estimate(self):
        rng = make_rng(1)
        data = rng.normal(10, 2, size=50)
        low, high = bootstrap_ci(data, rng)
        assert low <= float(np.mean(data)) <= high

    def test_custom_statistic(self):
        rng = make_rng(2)
        data = rng.normal(0, 1, size=40)
        low, high = bootstrap_ci(data, rng, statistic=np.median)
        assert low <= float(np.median(data)) <= high

    def test_validation(self):
        rng = make_rng(3)
        with pytest.raises(ValueError):
            bootstrap_ci([], rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], rng, n_resamples=0)


class TestMannWhitney:
    def test_detects_shift(self):
        rng = make_rng(4)
        a = rng.normal(0, 1, size=40)
        b = rng.normal(2, 1, size=40)
        _stat, p = mann_whitney(a, b)
        assert p < 0.001

    def test_no_difference(self):
        rng = make_rng(5)
        a = rng.normal(0, 1, size=40)
        b = rng.normal(0, 1, size=40)
        _stat, p = mann_whitney(a, b)
        assert p > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            mann_whitney([], [1.0])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["n"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["median"] == 2.0
        assert s["min"] == 1.0 and s["max"] == 3.0

    def test_single_value_std_zero(self):
        assert summarize([7.0])["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
