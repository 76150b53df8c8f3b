"""Shared helpers for the QR kernels: triangular solves, orthogonality
checks, and small shape utilities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends import hostmath, resolve_backend
from ..backends.base import ComputeBackend
from ..errors import ShapeError

__all__ = [
    "orthogonality_defect",
    "solve_upper_triangular",
    "as_2d_float",
    "ensure_all_finite",
]


def ensure_all_finite(a, name: str = "a") -> None:
    """Raise :class:`repro.errors.ShapeError` if ``a`` contains NaN or
    infinity.

    NaNs poison GEMMs silently and infinities break the Cholesky-based
    kernels with obscure errors, so the public entry points check their
    input (disable via their ``check_finite=False`` for hot paths, as
    in SciPy; :func:`repro.core.sampling.sample` runs this scan only
    when the Step-1 product is not finite).  Symbolic arrays are
    skipped (no data to check).
    """
    if not isinstance(a, np.ndarray):
        return
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} contains NaN or infinite entries")


def as_2d_float(a: np.ndarray, name: str = "a") -> np.ndarray:
    """Validate that ``a`` is a 2-D real floating array; upcast ints."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)
    return a


def orthogonality_defect(q: np.ndarray, rows: bool = False) -> float:
    """``||I - Q^T Q||_F`` (or ``||I - Q Q^T||_F`` when ``rows``).

    Zero for an exactly orthonormal frame; the paper's CholQR with one
    reorthogonalization keeps this at the 1e-14 level for its matrices.
    """
    q = as_2d_float(q, "q")
    g = q @ q.T if rows else q.T @ q
    k = g.shape[0]
    return float(hostmath.norm(g - np.eye(k), ord="fro"))


def solve_upper_triangular(r: np.ndarray, b: np.ndarray,
                           trans: bool = False,
                           backend: Optional[ComputeBackend] = None
                           ) -> np.ndarray:
    """Solve ``R x = b`` (or ``R^T x = b``) for upper-triangular ``R``.

    The TRSM runs on ``backend`` (the session default when ``None``);
    raises :class:`repro.errors.ShapeError` on non-square ``R``.
    """
    r = as_2d_float(r, "r")
    if r.shape[0] != r.shape[1]:
        raise ShapeError(f"R must be square, got {r.shape}")
    return resolve_backend(backend).solve_triangular(
        r, b, lower=False, trans="T" if trans else "N")
