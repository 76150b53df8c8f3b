"""Phase-tagged timing traces.

Figures 11-15 and 17 break the random-sampling run time into the same
seven phases; :class:`TimeLine` accumulates modeled kernel times under
those tags so the benches can print the paper's stacked bars directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Tuple

from ..errors import ConfigurationError

__all__ = ["Phase", "PHASES", "TimeLine"]

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
class Phase:
    """One accumulated phase: total seconds and number of kernel calls."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1


class TimeLine:
    """Accumulates modeled kernel times per phase.

    To inspect a run kernel by kernel, attach a
    :class:`repro.obs.spans.SpanRecorder` to its executor and read the
    recorder's ``kernel_spans()``.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, Phase] = {p: Phase() for p in PHASES}

    def _phase(self, phase: str) -> Phase:
        try:
            return self._phases[phase]
        except KeyError:
            raise ConfigurationError(
                f"unknown phase {phase!r}; expected one of {PHASES}"
            ) from None

    def charge(self, phase: str, seconds: float) -> None:
        """Add ``seconds`` of modeled time to ``phase``."""
        # Inline check, not _phase(): this runs once per modeled charge.
        if phase not in self._phases:
            raise ConfigurationError(
                f"unknown phase {phase!r}; expected one of {PHASES}")
        if not 0.0 <= seconds < inf:
            raise ConfigurationError(
                f"charged time must be finite and non-negative, got "
                f"{seconds}")
        self._phases[phase].add(seconds)

    def seconds(self, phase: str) -> float:
        """Accumulated seconds in one phase."""
        return self._phase(phase).seconds

    def calls(self, phase: str) -> int:
        """Number of kernel calls charged to one phase."""
        return self._phase(phase).calls

    @property
    def total(self) -> float:
        """Total modeled seconds across all phases."""
        return sum(p.seconds for p in self._phases.values())

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds map (in the paper's legend order)."""
        return {name: self._phases[name].seconds for name in PHASES}

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"seconds": ..., "calls": ...}`` for phases that
        saw at least one kernel (legend order)."""
        return {name: {"seconds": self._phases[name].seconds,
                       "calls": self._phases[name].calls}
                for name in PHASES if self._phases[name].calls > 0}

    def fractions(self) -> Dict[str, float]:
        """Phase -> fraction of total (0 when the total is zero)."""
        tot = self.total
        if tot <= 0:
            return {name: 0.0 for name in PHASES}
        return {name: self._phases[name].seconds / tot for name in PHASES}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in self.breakdown().items()
                          if v > 0)
        return f"TimeLine({parts}, total={self.total:.4f}s)"
