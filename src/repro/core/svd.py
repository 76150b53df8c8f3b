"""Randomized SVD on top of the sampled subspace.

The paper's randomized kernel stops at the pivoted form ``A P ~= Q R``
(eq. 1).  Many downstream applications (PCA, the HSS construction of
the paper's reference [22]) want the SVD form ``A ~= U S V^T`` instead;
this module provides it by the standard Halko-Martinsson-Tropp
post-processing of the same Stage-A subspace:

1. Stage A (shared with :func:`repro.core.random_sampling`): sample
   ``B = Omega A`` with ``q`` power iterations and orthonormalize its
   rows — ``B`` spans the dominant row space of ``A``.
2. Stage B: form the thin ``m x l`` matrix ``Y = A B^T``, factor
   ``Y = Q_y R_y`` (CholQR), SVD the small ``l x l`` factor ``R_y``,
   and truncate to rank ``k``::

       A ~= Y B = Q_y (R_y) B = (Q_y U_s) S (V_s^T B)

The small SVD runs on an ``l x l`` matrix (LAPACK via NumPy), so the
cost profile is identical to the fixed-rank algorithm: one extra GEMM
and an ``O(l^3)`` tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.annotations import allow_untimed_math
from ..backends import hostmath
from ..config import SamplingConfig
from ..errors import ShapeError, SymbolicExecutionError
from ..gpu.device import ArrayLike, NumpyExecutor, is_symbolic, shape_of
from .power import power_iterate
from .sampling import sample

__all__ = ["RandomizedSVD", "randomized_svd"]


@dataclass
class RandomizedSVD:
    """Rank-``k`` approximate SVD ``A ~= U diag(s) V^T``.

    ``U`` is ``m x k`` and ``V`` is ``n x k``, both with orthonormal
    columns; ``s`` holds the approximate singular values in descending
    order.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    sample_size: int
    power_iterations: int
    seconds: float = 0.0

    @property
    def k(self) -> int:
        return int(self.s.shape[0])

    @allow_untimed_math("host-side materialization for inspection; "
                        "never on the modeled device path")
    def approximation(self) -> np.ndarray:
        """Materialize the rank-``k`` approximation."""
        return (self.u * self.s) @ self.vt

    @allow_untimed_math("host-side diagnostic (Figure 6 error norm)")
    def residual(self, a: np.ndarray, relative: bool = True) -> float:
        """Spectral-norm approximation error."""
        err = hostmath.norm2(a - self.approximation())
        if relative:
            na = hostmath.norm2(a)
            return err / na if na > 0 else err
        return err


def randomized_svd(a: ArrayLike, config: SamplingConfig,
                   executor: Optional[NumpyExecutor] = None,
                   check_finite: bool = True) -> RandomizedSVD:
    """Rank-``k`` randomized SVD of an ``m x n`` matrix.

    Uses the same sampling/power-iteration machinery (and hence the
    same modeled GPU cost profile) as
    :func:`repro.core.random_sampling.random_sampling`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.config import SamplingConfig
    >>> from repro.core.svd import randomized_svd
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((300, 40)) @ rng.standard_normal((40, 80))
    >>> f = randomized_svd(a, SamplingConfig(rank=40, seed=1))
    >>> f.residual(a) < 1e-8
    True
    """
    m, n = shape_of(a)
    # Stage A always orthonormalizes the l x n sample's rows.
    config.validate_for(m, n, within_n=True)
    if is_symbolic(a):
        raise SymbolicExecutionError(
            "randomized_svd needs numerical data (the small SVD is "
            "value-dependent); use random_sampling for timing sweeps")
    ex = executor if executor is not None else NumpyExecutor(
        seed=config.seed, backend=config.backend)
    ex.bind(a)
    l, k = config.sample_size, config.rank

    # Stage A: sampled row-space basis.
    b = sample(ex, a, l, kind=config.sampler, check_finite=check_finite)
    b, _ = power_iterate(ex, a, b, q=config.power_iterations,
                         scheme=config.orth,
                         reorthogonalize=config.reorthogonalize)
    b = ex.orth_rows(b, scheme=config.orth, phase="orth_iter")

    # Stage B: project, factor, small SVD — every step charged through
    # the executor so the modeled cost profile stays faithful.
    y = ex.iter_gemm_at(b, a).T          # Y = A B^T  (m x l)
    qy, ry = ex.qr_selected(np.ascontiguousarray(y), scheme="cholqr2")
    u_s, s, vt_s = ex.svd_small(ry, phase="other")
    u = np.asarray(ex.gemm(qy, u_s[:, :k], phase="other"))
    vt = np.asarray(ex.gemm(vt_s[:k, :], b, phase="other"))
    return RandomizedSVD(u=u, s=s[:k], vt=vt, sample_size=l,
                         power_iterations=config.power_iterations,
                         seconds=ex.seconds)
