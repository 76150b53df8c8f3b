"""Host-side dense numerics: the one sanctioned home of raw
``numpy.linalg`` / ``numpy.fft`` / ``scipy.linalg`` calls.

Every module outside :mod:`repro.backends` must route linear algebra
either through an executor operation (so the FLOPs are charged to the
kernel model — rule RS101) or, for host-side diagnostics and small
glue factorizations, through the helpers here (rule RS114).  Keeping
the raw LAPACK/BLAS entry points in one module means a compute backend
can be swapped underneath the executors while the *verification* math
(residual norms, reference SVDs, orthogonality defects) stays on one
canonical, bit-stable host implementation.

These helpers deliberately stay thin: same semantics, same defaults,
same exception types as the underlying routines, except where a
docstring says otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.linalg.blas

__all__ = [
    "LinAlgError", "norm", "norm2", "column_norms", "row_norms",
    "svd", "svdvals", "qr", "qr_pivoted", "solve", "lstsq",
    "cholesky_upper", "solve_triangular", "fft",
]

#: The breakdown exception of the host LAPACK routines (scipy re-uses
#: numpy's class, so one ``except`` clause covers both).
LinAlgError = np.linalg.LinAlgError


def norm(a, ord=None, axis=None):
    """``np.linalg.norm`` passthrough (vector/matrix norms)."""
    return np.linalg.norm(a, ord=ord, axis=axis)


def norm2(a) -> float:
    """Spectral norm of a matrix (largest singular value) as a float."""
    return float(np.linalg.norm(a, ord=2))


def column_norms(a) -> np.ndarray:
    """Per-column Euclidean norms (QRCP's pivot weights)."""
    return np.linalg.norm(a, axis=0)


def row_norms(a) -> np.ndarray:
    """Per-row Euclidean norms (the adaptive scheme's DGKS guard)."""
    return np.linalg.norm(a, axis=1)


def svd(a, full_matrices: bool = False
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin (by default) singular value decomposition ``U, s, Vt``."""
    return np.linalg.svd(a, full_matrices=full_matrices)


def svdvals(a) -> np.ndarray:
    """Singular values only (no singular vectors accumulated)."""
    return np.linalg.svd(a, compute_uv=False)


def qr(a) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization (LAPACK ``geqrf``/``orgqr``)."""
    return np.linalg.qr(a)


def solve(a, b) -> np.ndarray:
    """Dense linear solve ``a x = b`` (LAPACK ``gesv``)."""
    return np.linalg.solve(a, b)


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b`` (``gelsd``).

    Returns only the solution; use the executor/backend SVD if you need
    rank or residual diagnostics.
    """
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def cholesky_upper(g) -> np.ndarray:
    """Upper Cholesky factor ``R`` with ``R^T R = g``.

    Raises :data:`LinAlgError` when ``g`` is not numerically SPD;
    callers that want the repo's error taxonomy should go through
    :meth:`repro.backends.base.ComputeBackend.cholesky`, which maps the
    breakdown to :class:`repro.errors.CholeskyBreakdownError`.
    """
    return scipy.linalg.cholesky(g, lower=False)


def qr_pivoted(a) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy QR with column pivoting (LAPACK ``geqp3``/``orgqr``).

    Returns ``q, r, perm`` with ``a[:, perm] = q r``; ``perm`` is an
    ``intp`` index array.
    """
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return q, r, perm.astype(np.intp)


def solve_triangular(r, b, lower: bool = False,
                     trans: str = "N") -> np.ndarray:
    """Triangular solve ``op(r) x = b``; ``trans="T"`` solves
    ``r^T x = b``.

    A non-empty 2-D float64 ``b`` (float64 ``r``, ``trans`` ``"N"`` or
    ``"T"``) is solved as the right-side BLAS
    ``trsm`` ``x^T op(r)^T = b^T`` on the zero-copy ``b.T`` view and
    returned C-ordered: a row-major wide block (CholQR's ``l x n``
    sample) then never takes the Fortran-order copy a left-side solve
    needs.  Anything else goes to ``scipy.linalg.solve_triangular``.
    Both paths keep scipy's contract: a non-finite operand raises
    ``ValueError``, an exact zero on the diagonal raises
    :data:`LinAlgError`, and ``b`` is never written.
    """
    r, b = np.asarray(r), np.asarray(b)
    if (trans not in ("N", "T") or b.ndim != 2 or b.size == 0
            or b.dtype != np.float64 or r.dtype != np.float64
            or r.shape != (b.shape[0], b.shape[0])):
        return scipy.linalg.solve_triangular(r, b, lower=lower, trans=trans)
    # scipy's own finiteness check, with its ValueError.
    np.asarray_chkfinite(r)
    np.asarray_chkfinite(b)
    zeros = np.flatnonzero(np.diagonal(r) == 0.0)
    if zeros.size:
        raise LinAlgError("singular matrix: resolution failed at "
                          f"diagonal {zeros[0]}")
    # Transposing the system flips which of r, r^T multiplies x.  A
    # b.T that is not Fortran-ordered reaches BLAS as a fresh copy,
    # which the solve may then overwrite instead of copying again.
    bt = b.T
    xt = scipy.linalg.blas.dtrsm(1.0, r, bt, side=1, lower=int(lower),
                                 trans_a=int(trans == "N"),
                                 overwrite_b=int(not bt.flags.f_contiguous))
    return xt.T


def fft(a, n: Optional[int] = None, axis: int = 0) -> np.ndarray:
    """Discrete Fourier transform along ``axis``, zero-padded to ``n``
    (the SRFT sampling operator's transform)."""
    return np.fft.fft(a, n=n, axis=axis)
