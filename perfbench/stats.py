"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def p99(samples) -> dict | None:
    """99th percentile with its sample count, or None when fewer than ten samples lie beyond it.

    The percentile is the nearest-rank value ``sorted[ceil(0.99 n) - 1]``; the
    samples beyond it are the ``n - ceil(0.99 n)`` larger ranks.
    """
    n = len(samples)
    rank = math.ceil(0.99 * n)
    if n - rank < 10:
        return None
    return {"value": sorted(samples)[rank - 1], "samples": n}
