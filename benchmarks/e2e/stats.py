"""Summary statistics shared by the runner, the child and the A/B gate.

Standard library only: ``run.py`` and ``compare.py`` import this
without numpy so they can start (and fail fast) anywhere.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = ["percentile", "beyond", "quartiles"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of ``samples``; 0.0
    when there are none (every op failed, which the run reports)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return float(ordered[min(rank, len(ordered)) - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile (the guide asks for at least ten)."""
    return n - max(1, math.ceil(q * n / 100.0))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them,
    plus the interquartile range as a share of the median."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return {"q1": v, "median": v, "q3": v, "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else math.inf}
