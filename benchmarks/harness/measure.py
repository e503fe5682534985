"""Sample statistics and the parent-vs-child verdicts of ``--compare``.

Percentiles are nearest-rank: the p-th percentile of n samples is the
``ceil(p/100 * n)``-th smallest sample, so it is always a value that was
measured.  A percentile is *supported* when at least ten samples lie beyond
it, which is why a p90 needs 100 samples and a median 20; unsupported
percentiles are still reported, flagged with their sample count.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: Samples that must lie beyond a percentile before it is trusted.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among *n* samples."""
    return max(1, math.ceil(p / 100.0 * n))


def beyond(n: int, p: float) -> int:
    """How many of *n* samples lie strictly beyond the p-th percentile."""
    return n - rank(n, p)


def supported(n: int, p: float) -> bool:
    """Whether the p-th percentile of *n* samples has enough samples beyond it."""
    return beyond(n, p) >= MIN_BEYOND


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of repeat values.

    Quartiles are :func:`statistics.quantiles` with the inclusive method:
    with the exclusive method three repeats would put the quartiles on the
    smallest and largest value, reading the whole range as the spread.
    One value has no spread, so its quartiles are the value itself.
    """
    if not values:
        raise ValueError("spread of an empty sample")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    rel = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": rel, "n": len(values)}


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(
    parent: Sequence[float], child: Sequence[float], bound: float, higher: bool
) -> Dict[str, object]:
    """Classify one workload x metric cell.

    - ``unresolved``: either side's repeat spread (IQR over median) exceeds
      *bound* and neither side won every run;
    - ``worse`` / ``improved``: the child median moved past *bound* (a
      share of the parent median) in the bad / good direction;
    - ``unchanged``: otherwise.

    The returned dict carries the ratio child/parent with its base, so a
    reader never sees a ratio without the number it divides.
    """
    p, c = spread(parent), spread(child)
    base = p["median"]
    gain = (c["median"] - base) / abs(base) if base else 0.0
    if not higher:
        gain = -gain
    child_all = all(_better(x, y, higher) for x in child for y in parent)
    parent_all = all(_better(y, x, higher) for x in child for y in parent)
    noisy = max(p["iqr_share"], c["iqr_share"]) > bound
    if noisy and not (child_all or parent_all):
        label = "unresolved"
    elif gain < -bound:
        label = "worse"
    elif gain > bound:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent": p,
        "child": c,
        "ratio": c["median"] / base if base else math.inf,
        "base": base,
        "gain": gain,
    }


def fail_rate(records: List[dict]) -> float:
    """Failed over attempted operations, pooled across run records."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0
