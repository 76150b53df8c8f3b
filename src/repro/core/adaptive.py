"""The adaptive-``l`` scheme for the fixed-accuracy problem (Figure 3).

Instead of a user-chosen rank, the caller supplies a tolerance ``eps``
on ``||A - A B^T B||``; the sampled subspace is grown by ``l_inc``
orthonormal vectors per step until the probabilistic error estimate
drops below ``eps``.  Per step:

1. *Expand*: run the power iteration on the pending block against the
   accepted basis, then orthogonalize it into the basis
   (``BOrth`` + QR — Figure 3 lines 7-8).  [The paper's pseudocode
   reaches the BOrth through POWER; for ``q = 0`` we still BOrth the
   block before its QR, otherwise the accumulated basis would not be
   orthonormal and the estimate of line 15 would be meaningless.]
2. *Generate*: choose the next increment ``l_inc = f(l, l_inc)``
   (static, or the Section-10 interpolation rule), draw a fresh
   Gaussian block ``B_+ = Omega A`` (line 13).
3. *Estimate*: ``eps_tilde = ||B_+ - B_+ B_{1:l}^T B_{1:l}||`` — since
   ``B_+ = Omega A``, this equals ``||Omega (A - A B^T B)||``, the
   estimator of eq. (4), satisfying ``||A - A B^T B|| <= c_ad
   sqrt(2/pi) eps_tilde`` with high probability.

The estimate is pessimistic (Figure 16 shows it one to two orders of
magnitude above the actual error), so the scheme generally oversamples;
Section 10's trade-off between small ``l_inc`` (tight subspace, slow
kernels) and large ``l_inc`` (fast kernels, overshoot) is what the
Figure 16/17 benches sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.annotations import allow_untimed_math
from ..backends import hostmath
from ..config import AdaptiveConfig
from ..errors import ConvergenceError
from ..gpu.device import ArrayLike, NumpyExecutor, is_symbolic, shape_of
from .power import power_iterate
from .sampling import sample

#: After the new block is orthonormalized, its unit rows are projected
#: against the basis once more; rows whose norm collapses below this
#: (the DGKS "twice is enough" criterion) were round-off residue of
#: directions already in the span and are dropped — normalizing them
#: would destroy the basis orthogonality and blow up the estimator.
_DEGENERATE_ROW_TOL = 0.5

__all__ = ["AdaptiveStep", "AdaptiveResult", "adaptive_sampling",
           "estimate_rank"]

#: Hard bounds on the interpolated increment.
_MIN_INC = 4
_MAX_INC = 256


@dataclass(frozen=True)
class AdaptiveStep:
    """One iteration of the adaptive scheme (one point of Figure 16/17).

    Attributes
    ----------
    subspace_size:
        Accepted basis size ``l`` *after* this step's expansion.
    increment:
        How many vectors were added this step.
    error_estimate:
        ``eps_tilde`` measured after the expansion (with a fresh block).
    seconds:
        Modeled device seconds elapsed since the start of the run.
    estimator_rows:
        Size of the fresh Gaussian block behind ``error_estimate`` —
        the ``l_inc`` entering the eq. (4) probability.
    """

    subspace_size: int
    increment: int
    error_estimate: float
    seconds: float
    estimator_rows: int = 0


@dataclass
class AdaptiveResult:
    """Output of :func:`adaptive_sampling`.

    ``basis`` holds the orthonormal rows ``B_{1:l}`` spanning the
    sampled subspace; feed it to Steps 2-3 of the fixed-rank algorithm
    (or use ``A ~= (A B^T) B`` directly) to extract factors.
    """

    basis: ArrayLike
    steps: List[AdaptiveStep] = field(default_factory=list)
    converged: bool = False
    seconds: float = 0.0
    shape: tuple = (0, 0)

    @property
    def subspace_size(self) -> int:
        return shape_of(self.basis)[0]

    def certified_bound(self, gamma: float = 1e-6) -> float:
        """A bound on ``||A - A B^T B||`` holding with probability at
        least ``1 - gamma`` (the paper's eq. (4)), computed from the
        final step's estimate.  See :mod:`repro.core.estimator`."""
        from .estimator import certified_bound as _cb
        if not self.steps:
            raise ConvergenceError("no steps recorded")
        last = self.steps[-1]
        m, n = self.shape
        bound, _ = _cb(last.error_estimate,
                       max(1, last.estimator_rows), m, n, gamma=gamma)
        return bound

    @allow_untimed_math("post-hoc diagnostic against the true matrix; "
                        "never part of a modeled device run")
    def actual_error(self, a: np.ndarray, relative: bool = False) -> float:
        """``||A - A B^T B||_2`` — the dashed "actual error" line of
        Figure 16."""
        b = np.asarray(self.basis)
        # The difference overwrites the projection it is taken from.
        resid = (a @ b.T) @ b
        np.subtract(a, resid, out=resid)
        err = hostmath.norm2(resid)
        if relative:
            na = hostmath.norm2(a)
            return err / na if na > 0 else err
        return err


def _next_increment(cfg: AdaptiveConfig, history: List[AdaptiveStep],
                    current_inc: int) -> int:
    """The step rule ``f(l, l_inc)``.

    ``static`` returns ``l_inc`` unchanged.  ``interpolate`` fits a
    line through the last two ``(l, log eps_tilde)`` points and sizes
    the next increment to land on the tolerance (Section 10's "simple
    linear interpolation of the previous two steps"), clamped to
    [_MIN_INC, _MAX_INC].
    """
    if cfg.step_rule == "static" or len(history) < 2:
        # f(l, inc) = l_inc: only the very first block uses l_init.
        return cfg.l_inc
    s0, s1 = history[-2], history[-1]
    e0, e1 = s0.error_estimate, s1.error_estimate
    if not (e0 > 0 and e1 > 0) or e1 >= e0:
        return current_inc  # no usable decay slope; keep the step
    slope = (math.log(e1) - math.log(e0)) / (s1.subspace_size
                                             - s0.subspace_size)
    needed = (math.log(cfg.tolerance) - math.log(e1)) / slope
    # Grow at most 4x per step: early slopes are noisy, and one huge
    # extrapolated jump defeats the point of adapting.
    ceiling = min(_MAX_INC, 4 * current_inc)
    return int(min(ceiling, max(_MIN_INC, math.ceil(needed))))


def estimate_rank(a: ArrayLike, tolerance: float,
                  executor: Optional[NumpyExecutor] = None,
                  l_inc: int = 16, seed: Optional[int] = 0) -> int:
    """Estimate the numerical rank of ``A`` at a given tolerance.

    Convenience wrapper over the adaptive scheme: grows the sampled
    subspace until the probabilistic error estimate drops below
    ``tolerance`` and returns the subspace size — an upper estimate of
    the rank at that accuracy (the estimator's pessimism means it never
    understates the rank, cf. Figure 16).
    """
    if tolerance <= 0:
        raise ConvergenceError("tolerance must be positive")
    cfg = AdaptiveConfig(tolerance=tolerance, l_init=min(8, l_inc),
                         l_inc=l_inc, step_rule="interpolate", seed=seed)
    res = adaptive_sampling(a, cfg, executor=executor)
    return res.subspace_size


def adaptive_sampling(a: ArrayLike, config: AdaptiveConfig,
                      executor: Optional[NumpyExecutor] = None,
                      check_finite: bool = True) -> AdaptiveResult:
    """Grow a sampled subspace until the error estimate meets the
    tolerance (the fixed-accuracy problem, Figure 3).

    Parameters
    ----------
    a:
        The ``m x n`` input matrix (must be a real array: the stopping
        rule needs numerical error estimates, so symbolic runs raise
        :class:`repro.errors.SymbolicExecutionError`).
    config:
        See :class:`repro.config.AdaptiveConfig`.
    executor:
        Execution backend (timed or plain); defaults to pure NumPy.
    check_finite:
        Reject NaN/Inf inputs with :class:`repro.errors.ShapeError`.
        The first block's ``B = Omega A`` stands in for a scan of
        ``A`` (see :func:`repro.core.sampling.sample`), so a passed-in
        executor has already been charged for it when the error is
        raised.

    Returns
    -------
    :class:`AdaptiveResult` with the orthonormal basis, the per-step
    convergence history (Figures 16/17), and the modeled time.

    Raises
    ------
    repro.errors.ConvergenceError
        When ``max_subspace`` (default ``min(m, n)``) is reached before
        the estimate meets the tolerance; the partial history rides on
        the exception.
    """
    m, n = shape_of(a)
    ex = executor if executor is not None else NumpyExecutor(
        seed=config.seed, backend=config.backend)
    ex.bind(a)
    cap = config.max_subspace if config.max_subspace is not None \
        else min(m, n)

    steps: List[AdaptiveStep] = []
    basis: Optional[ArrayLike] = None   # accepted B_{1:l}
    c_basis: Optional[ArrayLike] = None  # companion C_{1:l} (q > 0)
    l = 0
    inc = config.l_init
    t0 = ex.seconds

    # Line 2-3: initial pending block, whose product checks A.
    pending = sample(ex, a, inc, check_finite=check_finite)

    while True:
        # --- expand the subspace with the pending block (lines 6-9) ----
        new_b, new_c = power_iterate(
            ex, a, pending, q=config.power_iterations,
            b_prev=basis, c_prev=c_basis,
            scheme=config.orth, reorthogonalize=config.reorthogonalize)
        new_b = ex.block_orth_rows(basis, new_b,
                                   reorth=config.reorthogonalize)
        new_b = ex.orth_rows(new_b, scheme=config.orth)
        if basis is not None and not is_symbolic(new_b):
            # DGKS guard: project the now-unit rows against the basis
            # once more; genuine new directions keep norm ~1, round-off
            # residue of exhausted directions collapses and is dropped.
            w2 = ex.block_orth_rows(basis, new_b,
                                    reorth=config.reorthogonalize)
            norms = ex.row_norms(w2, phase="orth_iter")
            keep = norms > _DEGENERATE_ROW_TOL
            if not np.all(keep):
                w2 = np.asarray(w2)[keep, :]
                if new_c is not None:
                    new_c = np.asarray(new_c)[keep, :]
            if w2.shape[0] == 0:
                raise ConvergenceError(
                    "sampled subspace exhausted the numerical range of A "
                    f"at l = {l} with eps_tilde above the tolerance "
                    f"{config.tolerance:.3e}", history=steps)
            new_b = ex.orth_rows(w2, scheme=config.orth)
        added = shape_of(new_b)[0]
        basis = new_b if basis is None else ex.vstack([basis, new_b])
        if new_c is not None:
            c_basis = new_c if c_basis is None \
                else ex.vstack([c_basis, new_c])
        l += added

        # --- generate fresh vectors (lines 11-13) -----------------------
        inc = _next_increment(config, steps, inc)
        inc = min(inc, max(1, m - l))
        if l < cap:
            # Never overshoot the cap: the last block is shrunk so the
            # subspace can reach exactly `cap` (= full numerical rank
            # when cap = min(m, n)) before the scheme gives up.
            inc = min(inc, cap - l)
        pending = sample(ex, a, inc)

        # --- error estimate (line 15) -----------------------------------
        eps = ex.estimate_error(pending, basis)
        steps.append(AdaptiveStep(subspace_size=l, increment=added,
                                  error_estimate=eps,
                                  seconds=ex.seconds - t0,
                                  estimator_rows=shape_of(pending)[0]))
        if eps <= config.tolerance:
            return AdaptiveResult(basis=basis, steps=steps, converged=True,
                                  seconds=ex.seconds - t0, shape=(m, n))
        if l >= cap:
            raise ConvergenceError(
                f"adaptive scheme hit the subspace cap ({cap}) at "
                f"eps_tilde = {eps:.3e} > {config.tolerance:.3e}",
                history=steps)
