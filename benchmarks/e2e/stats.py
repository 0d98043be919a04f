"""Percentiles with a sample-count floor, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it; fewer and its value is set by a handful of outliers
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def reportable(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond it (the median needs the same)."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of run-to-run values
    (``statistics.quantiles(values, n=4)``, the exclusive method)."""
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}
