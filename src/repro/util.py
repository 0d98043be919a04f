"""Small shared helpers with no heavyweight intra-repo dependencies.

:func:`percentile` started life inside :mod:`repro.stream` (per-window
wall-latency summaries); the read path needs the identical nearest-rank
summary for query latencies, so the single implementation lives here and
both call sites import it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import WorkloadError


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0.0 when
    empty — there is no latency to report before the first sample)."""
    if len(sorted_values) == 0:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise WorkloadError(f"percentile q must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1]
