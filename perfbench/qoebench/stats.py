"""Order statistics used by every workload.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it, so a p99 needs 1000 samples.  Percentiles
use the nearest-rank definition: the value reported is one that was
actually observed.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["TAIL_SAMPLES", "min_samples", "percentile", "samples_beyond", "median"]

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def _rank(q: float, n: int) -> int:
    # round() absorbs binary noise such as 0.99 * 1000 = 989.9999999.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``-quantile."""
    return n - _rank(q, n)


def min_samples(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``tail`` samples beyond the ``q``-quantile."""
    n = tail
    while samples_beyond(n, q) < tail:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
