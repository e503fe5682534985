"""Statistical helpers for experiment reporting.

Reproduction claims should come with uncertainty: these wrappers provide
mean ± t-based confidence intervals, bootstrap intervals, and the
Mann-Whitney U test (scipy) for comparing GA variants across runs — small
sample counts and non-normal fitness distributions make the rank test the
right default.

``scipy.stats`` is imported inside :func:`mean_ci` and :func:`mann_whitney`,
the only two functions that call it, not at module level.  Every ``repro``
command imports this module through :mod:`repro.analysis`, and loading scipy
there made up most of the start-up time and resident memory of
``repro serve``, which never computes a p-value or a t-quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["MeanCI", "mean_ci", "bootstrap_ci", "mann_whitney", "summarize"]


@dataclass(frozen=True)
class MeanCI:
    """A mean with a symmetric confidence interval."""

    mean: float
    low: float
    high: float
    confidence: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} [{self.low:.3f}, {self.high:.3f}] (n={self.n})"


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean.

    A single observation yields a degenerate interval at the point value.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("need at least one value")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    m = float(x.mean())
    if x.size == 1:
        return MeanCI(mean=m, low=m, high=m, confidence=confidence, n=1)
    sem = float(x.std(ddof=1)) / np.sqrt(x.size)
    if sem == 0.0:
        return MeanCI(mean=m, low=m, high=m, confidence=confidence, n=int(x.size))
    from scipy import stats as sps

    half = float(sps.t.ppf(0.5 + confidence / 2, df=x.size - 1)) * sem
    return MeanCI(mean=m, low=m - half, high=m + half, confidence=confidence, n=int(x.size))


def bootstrap_ci(
    values: Sequence[float],
    rng: np.random.Generator,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    statistic=np.mean,
) -> Tuple[float, float]:
    """Percentile bootstrap interval for an arbitrary statistic."""
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("need at least one value")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    idx = rng.integers(0, x.size, size=(n_resamples, x.size))
    samples = statistic(x[idx], axis=1)
    alpha = (1 - confidence) / 2
    return (
        float(np.quantile(samples, alpha)),
        float(np.quantile(samples, 1 - alpha)),
    )


def mann_whitney(
    a: Sequence[float], b: Sequence[float], alternative: str = "two-sided"
) -> Tuple[float, float]:
    """Mann-Whitney U: ``(statistic, p_value)`` for samples *a* vs *b*."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    from scipy import stats as sps

    result = sps.mannwhitneyu(list(a), list(b), alternative=alternative)
    return float(result.statistic), float(result.pvalue)


def summarize(values: Sequence[float]) -> dict:
    """Quick descriptive summary used by report generators."""
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("need at least one value")
    return {
        "n": int(x.size),
        "mean": float(x.mean()),
        "std": float(x.std(ddof=1)) if x.size > 1 else 0.0,
        "min": float(x.min()),
        "median": float(np.median(x)),
        "max": float(x.max()),
    }
