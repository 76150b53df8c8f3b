"""Low-rank factorization results and error measures.

The algorithms produce ``A P ~= Q R`` (the paper's equation (1)):
``Q`` is ``m x k`` with orthonormal columns, ``R`` is ``k x n`` upper
trapezoidal *in pivoted column order*, and ``P`` is a column
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from ..analysis.annotations import allow_untimed_math
from ..backends import hostmath
from ..errors import ShapeError, SymbolicExecutionError
from ..gpu.device import ArrayLike, is_symbolic
from ..gpu.trace import TimeLine

__all__ = ["LowRankFactors", "spectral_error", "best_rank_k_error"]


@allow_untimed_math("reference error measure computed on the host "
                    "(Figure 6); never on the modeled device path")
def spectral_error(a: np.ndarray, approx: np.ndarray,
                   relative: bool = True) -> float:
    """``||A - approx||_2`` (optionally over ``||A||_2``), the error
    norm of Figure 6."""
    if a.shape != approx.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {approx.shape}")
    err = hostmath.norm2(a - approx)
    if relative:
        na = hostmath.norm2(a)
        return err / na if na > 0 else err
    return err


@allow_untimed_math("Eckart-Young reference optimum via host LAPACK; "
                    "a measurement yardstick, not a modeled kernel")
def best_rank_k_error(a: np.ndarray, k: int, relative: bool = True) -> float:
    """``sigma_{k+1}(A)`` — the optimal rank-``k`` spectral error
    (Eckart-Young), the floor every algorithm is judged against."""
    s = hostmath.svdvals(a)
    if k >= s.size:
        return 0.0
    err = float(s[k])
    if relative and s[0] > 0:
        return err / float(s[0])
    return err


@dataclass
class LowRankFactors:
    """Result of a rank-``k`` approximation ``A P ~= Q R``.

    Besides the factors, carries the modeled device time of the run
    (zero for the pure-NumPy executor) and the per-phase breakdown used
    by the Figure 11-15 benches.
    """

    q: ArrayLike
    r: ArrayLike
    perm: np.ndarray
    k: int
    sample_size: int
    power_iterations: int
    seconds: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def symbolic(self) -> bool:
        """True when the run was shape-only (no numerical factors)."""
        return is_symbolic(self.q, self.r)

    def _require_real(self) -> None:
        if self.symbolic:
            raise SymbolicExecutionError(
                "this result came from a symbolic (timing-only) run; "
                "re-run with a real matrix for numerical factors")

    @allow_untimed_math("host-side materialization for inspection; "
                        "never on the modeled device path")
    def approximation(self) -> np.ndarray:
        """Rank-``k`` approximation of ``A`` in original column order."""
        self._require_real()
        qr = np.asarray(self.q) @ np.asarray(self.r)
        out = np.empty_like(qr)
        out[:, self.perm] = qr
        return out

    @allow_untimed_math("host-side diagnostic (Figure 6 error norm)")
    def residual(self, a: np.ndarray, relative: bool = True) -> float:
        """``||A P - Q R|| / ||A||`` — the Figure 6 error norm.

        Same value, bit for bit, as :func:`spectral_error` on ``A P``
        and ``Q R``, but ``Q R`` is subtracted in place from the ``A P``
        copy the column gather makes: no third ``m x n`` array."""
        self._require_real()
        q, r = np.asarray(self.q), np.asarray(self.r)
        resid = a[:, self.perm]
        if resid.shape != (q.shape[0], r.shape[1]):
            raise ShapeError(f"shape mismatch: {resid.shape} vs "
                             f"{(q.shape[0], r.shape[1])}")
        na = hostmath.norm2(resid) if relative else 0.0
        resid = resid.astype(np.result_type(resid, q, r), copy=False)
        resid -= q @ r
        err = hostmath.norm2(resid)
        if relative:
            return err / na if na > 0 else err
        return err

    def suboptimality(self, a: np.ndarray) -> float:
        """Ratio of the achieved error to the Eckart-Young optimum
        ``sigma_{k+1}`` (1.0 means optimal)."""
        self._require_real()
        opt = best_rank_k_error(a, self.k, relative=True)
        err = self.residual(a, relative=True)
        return err / opt if opt > 0 else float("inf")
