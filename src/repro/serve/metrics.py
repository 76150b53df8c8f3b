"""Service counters: queue depth, batch occupancy, latency percentiles.

Pure-python on purpose — the serving layer orchestrates, it does not
compute, so nothing here may touch numpy (the RS114 backend boundary
stays trivially clean) and percentiles use the classic nearest-rank
definition over a sorted copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import REJECTION_REASONS, ConfigurationError

__all__ = ["percentile", "ServiceCounters"]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Returns 0.0 on an empty sample list so report tables render
    without special-casing a drained run.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], "
                                 f"got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q <= 0.0:
        return float(ordered[0])
    rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil(q*n/100)
    rank = min(len(ordered), -(-(q * len(ordered)) // 100))
    return float(ordered[int(rank) - 1])


@dataclass
class ServiceCounters:
    """Aggregated service-side observability counters.

    One instance per :class:`repro.serve.service.LowRankService`;
    mutated only from the service's event loop (plus the completion
    callbacks it schedules), read at any time.
    """

    submitted: int = 0
    completed: int = 0
    #: Requests whose own math raised (anything but a rejection).
    failed: int = 0
    #: Rejections/terminations by taxonomy reason (queue_full, closed,
    #: invalid, deadline, cancelled).
    rejections: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in REJECTION_REASONS})
    #: Current and high-water queue depth.
    queue_depth: int = 0
    max_queue_depth: int = 0
    #: One entry per dispatched batch: how many requests rode it.
    batch_sizes: List[int] = field(default_factory=list)
    #: How many requests were served from a coalesced (size > 1) batch.
    coalesced_requests: int = 0
    #: Submission-to-completion seconds of successful requests.
    latencies_s: List[float] = field(default_factory=list)
    queue_waits_s: List[float] = field(default_factory=list)

    def reset(self) -> None:
        """Zero every counter in place (e.g. after a warmup wave)."""
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejections = {r: 0 for r in REJECTION_REASONS}
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.batch_sizes = []
        self.coalesced_requests = 0
        self.latencies_s = []
        self.queue_waits_s = []

    def note_submitted(self) -> None:
        self.submitted += 1

    def note_depth(self, depth: int) -> None:
        self.queue_depth = depth
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def note_rejected(self, reason: str) -> None:
        if reason not in self.rejections:
            raise ConfigurationError(
                f"unknown rejection reason {reason!r}; expected one of "
                f"{REJECTION_REASONS}")
        self.rejections[reason] += 1

    def note_batch(self, size: int) -> None:
        self.batch_sizes.append(size)
        if size > 1:
            self.coalesced_requests += size

    def note_failed(self) -> None:
        self.failed += 1

    def note_completed(self, latency_s: float, queue_wait_s: float) -> None:
        self.completed += 1
        self.latencies_s.append(float(latency_s))
        self.queue_waits_s.append(float(queue_wait_s))

    # -- derived views ----------------------------------------------------
    @property
    def batches(self) -> int:
        return len(self.batch_sizes)

    @property
    def mean_occupancy(self) -> float:
        """Mean requests per dispatched batch (1.0 = no coalescing)."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def max_occupancy(self) -> int:
        return max(self.batch_sizes) if self.batch_sizes else 0

    def latency_percentiles(self) -> Dict[str, float]:
        return {"p50": percentile(self.latencies_s, 50.0),
                "p95": percentile(self.latencies_s, 95.0),
                "p99": percentile(self.latencies_s, 99.0)}

    def summary(self) -> Dict[str, object]:
        """Plain-data snapshot for reports and BENCH artifact metrics."""
        lat = self.latency_percentiles()
        mean = (sum(self.latencies_s) / len(self.latencies_s)
                if self.latencies_s else 0.0)
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejections": dict(self.rejections),
            "max_queue_depth": self.max_queue_depth,
            "batches": self.batches,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "coalesced_requests": self.coalesced_requests,
            "latency_mean_s": mean,
            "latency_p50_s": lat["p50"],
            "latency_p95_s": lat["p95"],
            "latency_p99_s": lat["p99"],
        }
