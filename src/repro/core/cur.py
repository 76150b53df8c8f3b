"""CUR decomposition via randomized pivot selection.

The paper motivates the HapMap experiment with CUR-style analyses
(references [6] Drineas-Mahoney-Muthukrishnan and [14]
Mahoney-Drineas): a low-rank factorization ``A ~= C U R`` whose factors
are *actual columns and rows of A*, so they stay interpretable (for
genotype data: actual SNPs and actual individuals).

This implementation composes the package's own kernels:

1. Column selection: Steps 1-2 of the randomized algorithm (sample
   ``B = Omega A``, truncated QP3 of ``B``) pick ``k`` columns —
   exactly the pivot set the paper's Figure 2b computes.
2. Row selection: the same procedure on ``A^T``.
3. Core: ``U = C^+ A R^+`` (the optimal core for fixed C, R), computed
   with two least-squares solves against the selected slabs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.annotations import allow_untimed_math
from ..backends import hostmath
from ..config import SamplingConfig
from ..errors import NonFiniteResultError, SymbolicExecutionError
from ..gpu.device import ArrayLike, NumpyExecutor, is_symbolic, shape_of
from .power import power_iterate
from .sampling import sample

__all__ = ["CURDecomposition", "cur_decomposition"]


@dataclass
class CURDecomposition:
    """``A ~= C U R`` with ``C = A[:, cols]`` and ``R = A[rows, :]``.

    Attributes
    ----------
    cols, rows:
        The selected column / row indices (length ``k``).
    c, u, r:
        The factors: ``m x k``, ``k x k``, ``k x n``.
    """

    cols: np.ndarray
    rows: np.ndarray
    c: np.ndarray
    u: np.ndarray
    r: np.ndarray

    @property
    def k(self) -> int:
        return int(self.cols.shape[0])

    @allow_untimed_math("host-side materialization for inspection; "
                        "never on the modeled device path")
    def approximation(self) -> np.ndarray:
        return self.c @ self.u @ self.r

    @allow_untimed_math("host-side diagnostic error norm")
    def residual(self, a: np.ndarray, relative: bool = True) -> float:
        err = hostmath.norm2(a - self.approximation())
        if relative:
            na = hostmath.norm2(a)
            return err / na if na > 0 else err
        return err


@allow_untimed_math("CUR core solve runs on the host: the paper's GPU "
                    "pipeline ends at the pivot selection, and LAPACK "
                    "lstsq has no kernel model")
def _core_factor(c: np.ndarray, a_np: np.ndarray,
                 r: np.ndarray) -> np.ndarray:
    """The least-squares-optimal core ``U = C^+ A R^+`` via two solves:
    ``X = C^+ A`` (k x n), then ``U = X R^+ = (R^+^T X^T)^T``.

    Raises :class:`repro.errors.NonFiniteResultError` when ``U``
    overflows (entries near underflow make the pseudo-inverses huge).
    """
    x = hostmath.lstsq(c, a_np)
    u = hostmath.lstsq(r.T, x.T).T
    if not np.all(np.isfinite(u)):
        raise NonFiniteResultError(
            "the CUR core factor u has NaN or infinite entries: the "
            "selected columns and rows are too close to underflow to "
            "invert", factor="u")
    return u


def _select_pivots(ex: NumpyExecutor, a: ArrayLike, config: SamplingConfig,
                   check_finite: bool = False) -> np.ndarray:
    """Steps 1-2 of Figure 2b: the first ``k`` QRCP pivots of the
    sampled matrix."""
    b = sample(ex, a, config.sample_size, kind=config.sampler,
               check_finite=check_finite)
    b, _ = power_iterate(ex, a, b, q=config.power_iterations,
                         scheme=config.orth,
                         reorthogonalize=config.reorthogonalize)
    _, _, perm = ex.qrcp_sampled(b, config.rank)
    return np.asarray(perm[: config.rank])


def cur_decomposition(a: ArrayLike, config: SamplingConfig,
                      executor: Optional[NumpyExecutor] = None,
                      check_finite: bool = True) -> CURDecomposition:
    """Rank-``k`` CUR decomposition by randomized QRCP pivoting.

    Both index sets come from the paper's own column-selection
    machinery (sampled QRCP), applied to ``A`` and ``A^T``; the core is
    the least-squares-optimal ``C^+ A R^+``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.config import SamplingConfig
    >>> from repro.core.cur import cur_decomposition
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((200, 30)) @ rng.standard_normal((30, 90))
    >>> d = cur_decomposition(a, SamplingConfig(rank=30, seed=1))
    >>> d.residual(a) < 1e-8
    True
    """
    m, n = shape_of(a)
    # The A^T pass samples l of the n rows.
    config.validate_for(m, n, within_n=True)
    if is_symbolic(a):
        raise SymbolicExecutionError(
            "cur_decomposition needs numerical data")
    ex = executor if executor is not None else NumpyExecutor(
        seed=config.seed, backend=config.backend)
    ex.bind(a)

    # The column pass's Step 1 checks A for NaN/Inf (see sample()).
    cols = _select_pivots(ex, a, config, check_finite=check_finite)
    # Row selection: the same algorithm on A^T (its "columns" are rows
    # of A).  The transpose view never copies for a NumPy input.
    rows = _select_pivots(ex, np.asarray(a).T, config)

    a_np = np.asarray(a)
    c = a_np[:, cols]
    r = a_np[rows, :]
    return CURDecomposition(cols=cols, rows=rows, c=c,
                            u=_core_factor(c, a_np, r), r=r)
