"""Per-phase counters of one simulated device.

Figures 11-15 and 17 break the random-sampling run time into the same
seven phases.  Every modeled charge lands in the device's
:class:`TimeLine` under its phase tag, as one :class:`PhaseCounter`
per phase (modeled seconds, kernel calls, FLOPs, bytes moved), so the
benches print the paper's stacked bars and the run's FLOP and byte
totals from the timeline alone.  The timeline is the one counter sink
of a run; a :class:`repro.obs.spans.SpanRecorder`, attached only by a
caller that reads the kernel-by-kernel span tree, logs the same
charges a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Tuple

from ..errors import ConfigurationError

__all__ = ["PhaseCounter", "PHASES", "TimeLine"]

#: The paper's phase legend (Figures 11-15).
PHASES: Tuple[str, ...] = (
    "prng",        # generation of the sampling matrix Omega
    "sampling",    # the initial GEMM  B = Omega A
    "gemm_iter",   # GEMMs inside the power iterations
    "orth_iter",   # orthogonalization inside the power iterations
    "qrcp",        # QRCP of the sampled matrix B        (Step 2)
    "qr",          # QR of the selected columns A P_{1:k} (Step 3)
    "comms",       # inter-GPU / host-device communication
    "other",       # triangular solves/multiplies forming R, misc.
)


@dataclass
class PhaseCounter:
    """One phase's accumulated seconds, kernel calls, FLOPs and bytes."""

    seconds: float = 0.0
    calls: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0

    def add(self, seconds: float, flops: float, bytes_moved: float) -> None:
        self.seconds += seconds
        self.calls += 1
        self.flops += flops
        self.bytes_moved += bytes_moved

    def to_dict(self) -> Dict:
        return {"seconds": self.seconds, "calls": self.calls,
                "flops": self.flops, "bytes_moved": self.bytes_moved}


def _unknown_phase(phase: str) -> ConfigurationError:
    return ConfigurationError(
        f"unknown phase {phase!r}; expected one of {PHASES}")


class TimeLine:
    """Accumulates modeled kernel charges per phase.

    :attr:`counters` holds one :class:`PhaseCounter` per charged phase,
    in first-charge order; the views below (:meth:`breakdown`,
    :meth:`stats`, :attr:`total`) read them in the paper's legend
    order.  To inspect a run kernel by kernel, attach a
    :class:`repro.obs.spans.SpanRecorder` to its executor and read the
    recorder's ``kernel_spans()``.
    """

    def __init__(self) -> None:
        #: Phase -> counter, for the phases charged so far, in the
        #: order of their first charge.
        self.counters: Dict[str, PhaseCounter] = {}

    def _counter(self, phase: str) -> PhaseCounter:
        """The counter of a known ``phase`` (a zero one if uncharged)."""
        counter = self.counters.get(phase)
        if counter is None:
            if phase not in PHASES:
                raise _unknown_phase(phase)
            return PhaseCounter()
        return counter

    def charge(self, phase: str, seconds: float, flops: float = 0.0,
               bytes_moved: float = 0.0) -> None:
        """Add one kernel of ``seconds`` modeled time (and its FLOP and
        byte estimates) to ``phase``.  A bad phase or a negative or
        non-finite time raises before anything lands."""
        # Inlined checks: this runs once per modeled charge.
        counter = self.counters.get(phase)
        if counter is None and phase not in PHASES:
            raise _unknown_phase(phase)
        if not 0.0 <= seconds < inf:
            raise ConfigurationError(
                f"charged time must be finite and non-negative, got "
                f"{seconds}")
        if counter is None:
            counter = self.counters[phase] = PhaseCounter()
        counter.add(seconds, flops, bytes_moved)

    def seconds(self, phase: str) -> float:
        """Accumulated seconds in one phase."""
        return self._counter(phase).seconds

    def calls(self, phase: str) -> int:
        """Number of kernel calls charged to one phase."""
        return self._counter(phase).calls

    @property
    def total(self) -> float:
        """Total modeled seconds across all phases (legend order)."""
        return sum(self.breakdown().values())

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds map (in the paper's legend order)."""
        counters = self.counters
        return {name: counters[name].seconds if name in counters else 0.0
                for name in PHASES}

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"seconds": ..., "calls": ...}`` for phases that
        saw at least one kernel (legend order)."""
        return {name: {"seconds": self.counters[name].seconds,
                       "calls": self.counters[name].calls}
                for name in PHASES if name in self.counters}

    def fractions(self) -> Dict[str, float]:
        """Phase -> fraction of total (0 when the total is zero)."""
        tot = self.total
        if tot <= 0:
            return {name: 0.0 for name in PHASES}
        return {name: s / tot for name, s in self.breakdown().items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in self.breakdown().items()
                          if v > 0)
        return f"TimeLine({parts}, total={self.total:.4f}s)"
