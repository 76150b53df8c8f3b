"""The fixed-rank randomized sampling algorithm (Figure 2b).

Given an ``m x n`` matrix ``A`` and a target rank ``k``, compute
``A P ~= Q R`` in three steps:

1. **Sampling**: ``B = Omega A`` with an ``l x m`` Gaussian (or
   subsampled-FFT) matrix, ``l = k + p``; optionally ``q`` power
   iterations with re-orthogonalization.
2. **QRCP** of the small ``l x n`` sampled matrix: ``B P ~= Q_hat
   (R_hat_{1:k}  R_hat_{k+1:n})`` — this selects the ``k`` pivot
   columns and the coupling ``T = R_hat_{1:k}^{-1} R_hat_{k+1:n}``.
3. **QR** of the selected columns ``A P_{1:k} = Q R_bar``; then
   ``R = R_bar [I  T]``.

The function is executor-polymorphic: pass nothing for pure NumPy,
a :class:`repro.gpu.GPUExecutor` for a timed single-GPU run, or a
:class:`repro.gpu.MultiGPUExecutor` for the Figure 15 runtime.  With a
symbolic input (:class:`repro.gpu.SymArray`) only the modeled clock
advances — that is how the paper-scale performance sweeps run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SamplingConfig
from ..errors import ShapeError
from ..qr.utils import ensure_all_finite
from ..gpu.device import ArrayLike, NumpyExecutor, shape_of
from .lowrank import LowRankFactors
from .power import power_iterate
from .sampling import sample

__all__ = ["random_sampling"]


def random_sampling(a: ArrayLike, config: SamplingConfig,
                    executor: Optional[NumpyExecutor] = None,
                    check_finite: bool = True,
                    presampled: Optional[ArrayLike] = None
                    ) -> LowRankFactors:
    """Compute a rank-``k`` approximation ``A P ~= Q R`` by random
    sampling.

    Parameters
    ----------
    a:
        The ``m x n`` input matrix (NumPy array, or
        :class:`repro.gpu.SymArray` for a timing-only run).
    config:
        Algorithm parameters; see :class:`repro.config.SamplingConfig`.
    executor:
        Execution backend.  Defaults to a fresh pure-NumPy executor
        seeded from ``config.seed``.
    check_finite:
        Reject NaN/Inf inputs up front (disable on hot paths).
    presampled:
        An externally computed ``l x n`` sampled matrix ``B`` replacing
        Step 1's draw-and-GEMM.  This is the continuous-batching hook:
        :mod:`repro.serve` coalesces the ``Omega A`` products of
        compatible concurrent requests into one stacked GEMM and feeds
        each request its slice here, leaving Steps 2-3 untouched — the
        caller is responsible for having drawn ``Omega`` exactly as a
        solo run would (same seed, same executor PRNG stream) so
        results stay bit-identical.

    Returns
    -------
    :class:`repro.core.lowrank.LowRankFactors`
        The factors plus the modeled run time and per-phase breakdown.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import random_sampling, SamplingConfig
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((500, 30)) @ rng.standard_normal((30, 60))
    >>> f = random_sampling(a, SamplingConfig(rank=30, seed=1))
    >>> f.residual(a) < 1e-8
    True
    """
    m, n = shape_of(a)
    config.validate_for(m, n)
    if check_finite:
        ensure_all_finite(a, "a")
    ex = executor if executor is not None else NumpyExecutor(
        seed=config.seed, backend=config.backend)
    ex.bind(a)

    l = config.sample_size
    k = config.rank
    if k > l:
        raise ShapeError(f"rank {k} exceeds sample size {l}")

    # --- Step 1: sampling (+ power iterations) --------------------------
    if presampled is not None:
        bl, bn = shape_of(presampled)
        if (bl, bn) != (l, n):
            raise ShapeError(
                f"presampled B is {bl} x {bn}; config expects "
                f"l x n = {l} x {n}")
        b = presampled
    else:
        b = sample(ex, a, l, kind=config.sampler)
    b, _ = power_iterate(ex, a, b, q=config.power_iterations,
                         scheme=config.orth,
                         reorthogonalize=config.reorthogonalize)

    # --- Step 2: QRCP of the sampled matrix -----------------------------
    _qhat, rhat, perm = ex.qrcp_sampled(b, k)

    # --- Step 3: QR of the selected columns -----------------------------
    ap = ex.take_columns(a, perm[:k])
    qfac, rbar = ex.qr_selected(ap, scheme="cholqr2")
    if n > k:
        t = ex.solve_upper(rhat[:, :k], rhat[:, k:])
        r = ex.assemble_r(rbar, t)
    else:
        r = rbar

    return LowRankFactors(
        q=qfac,
        r=r,
        perm=np.asarray(perm),
        k=k,
        sample_size=l,
        power_iterations=config.power_iterations,
        seconds=ex.seconds,
        breakdown=dict(ex.timeline.breakdown()),
    )
