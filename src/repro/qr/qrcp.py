"""QR with column pivoting: the deterministic baseline (Section 2).

Two implementations are provided, mirroring the paper's discussion:

- :func:`qrcp_column` — the column-based algorithm (Businger-Golub
  [3]): at each step pick the remaining column with the largest norm,
  reduce it with a Householder reflector, and update every remaining
  column with BLAS-2 operations.
- :func:`qp3_blocked` — the blocked BLAS-3 algorithm of
  Quintana-Orti, Sun & Bischof [17] as implemented in LAPACK's
  ``dgeqp3``/``dlaqps``: the panel is factored with pivoting while the
  trailing submatrix is updated *lazily* through an auxiliary matrix
  ``F`` (only the pivot row is kept current, so norms can be
  downdated), then the trailing submatrix gets one BLAS-3 update
  ``A <- A - V F^T`` per panel.  When round-off makes a downdated norm
  untrustworthy the panel is cut short and the affected norms are
  recomputed — the safeguard whose cost the paper highlights
  (Section 2).

Both support **truncation** after ``k`` columns — the paper's truncated
QP3 that extracts a rank-``k`` approximation directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import QRCPConfig
from ..backends import hostmath
from ..errors import ShapeError
from .householder import householder_vector
from .utils import as_2d_float

__all__ = ["QRCPResult", "qrcp_column", "qp3_blocked", "qrcp"]


@dataclass
class QRCPResult:
    """Result of a (possibly truncated) QRCP factorization ``A P = Q R``.

    Attributes
    ----------
    q:
        ``m x k`` matrix with orthonormal columns.
    r:
        ``k x n`` upper-trapezoidal factor (in the *permuted* column
        order).
    perm:
        Length-``n`` permutation such that ``A[:, perm] ~= Q R``.
    k:
        Number of factored columns (the truncation rank).
    norm_recomputations:
        How many times trailing column norms had to be recomputed from
        scratch (the QP3 safeguard; 0 for well-behaved inputs).
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    k: int
    norm_recomputations: int = 0

    def residual(self, a: np.ndarray, relative: bool = True) -> float:
        """``||A P - Q R|| / ||A||`` (spectral norm), the paper's Fig. 6
        error measure.  ``Q R`` is subtracted in place from the ``A P``
        copy the column gather makes."""
        resid = a[:, self.perm].astype(
            np.result_type(a, self.q, self.r), copy=False)
        resid -= self.q @ self.r
        err = hostmath.norm2(resid)
        if relative:
            na = hostmath.norm2(a)
            return err / na if na > 0 else err
        return err

    def approximation(self) -> np.ndarray:
        """Reconstruct the rank-``k`` approximation of ``A`` (original
        column order)."""
        out = np.empty_like(self.q @ self.r)
        out[:, self.perm] = self.q @ self.r
        return out


def _materialize_q(store: np.ndarray, taus: np.ndarray, m: int, k: int
                   ) -> np.ndarray:
    """Form the economy ``m x k`` Q from packed reflectors (``dorgqr``)."""
    q = np.zeros((m, k))
    np.fill_diagonal(q, 1.0)
    for j in range(k - 1, -1, -1):
        tau = taus[j]
        if tau == 0.0:
            continue
        v = np.empty(m - j)
        v[0] = 1.0
        v[1:] = store[j + 1:, j]
        block = q[j:, :]
        w = tau * (v @ block)
        block -= np.outer(v, w)
    return q


def qrcp_column(a: np.ndarray, k: Optional[int] = None) -> QRCPResult:
    """Column-based QRCP (BLAS-2 reference implementation).

    At step ``j`` the remaining column with the largest 2-norm is
    swapped into position ``j`` and annihilated below the diagonal.
    Norms are fully recomputed every step, so this variant is slow but
    maximally robust; it is the oracle the blocked algorithm is tested
    against.
    """
    a = as_2d_float(a, "a")
    m, n = a.shape
    kmax = min(m, n)
    k = kmax if k is None else min(k, kmax)
    work = a.astype(np.float64, copy=True)
    perm = np.arange(n)
    taus = np.zeros(k)

    for j in range(k):
        norms = hostmath.column_norms(work[j:, j:])
        pj = j + int(np.argmax(norms))
        if pj != j:
            work[:, [j, pj]] = work[:, [pj, j]]
            perm[[j, pj]] = perm[[pj, j]]
        v, tau, beta = householder_vector(work[j:, j])
        taus[j] = tau
        work[j, j] = beta
        work[j + 1:, j] = v[1:]
        if tau != 0.0 and j + 1 < n:
            trail = work[j:, j + 1:]
            w = tau * (v @ trail)
            trail -= np.outer(v, w)

    q = _materialize_q(work, taus, m, k)
    r = np.triu(work[:k, :])
    return QRCPResult(q=q, r=r, perm=perm, k=k)


def qp3_blocked(a: np.ndarray, k: Optional[int] = None,
                config: Optional[QRCPConfig] = None,
                tolerance: Optional[float] = None) -> QRCPResult:
    """Blocked QP3 with column-norm downdating (``dgeqp3`` structure).

    See the module docstring for the algorithm.  Returns the same
    factorization contract as :func:`qrcp_column`; the two agree on the
    pivot sequence whenever no norm ties are broken differently by
    round-off.

    ``tolerance`` switches to the **fixed-accuracy** problem (the
    deterministic counterpart of the paper's adaptive-``l`` scheme):
    factorization stops at the first panel boundary where the largest
    remaining column norm drops to ``tolerance * max_initial_norm`` —
    that norm bounds the rank-revealed residual.  The effective rank is
    the returned ``QRCPResult.k``.
    """
    cfg = config or QRCPConfig()
    a = as_2d_float(a, "a")
    m, n = a.shape
    kmax = min(m, n)
    if k is None:
        k = cfg.truncate if cfg.truncate is not None else kmax
    k = min(k, kmax)
    if tolerance is not None and tolerance <= 0:
        raise ShapeError(f"tolerance must be positive, got {tolerance}")

    work = a.astype(np.float64, copy=True)
    perm = np.arange(n)
    taus = np.zeros(k)
    tol3z = np.sqrt(np.finfo(np.float64).eps)

    # Downdated (vn1) and reference (vn2) column norms, LAPACK naming.
    vn1 = hostmath.column_norms(work)
    vn2 = vn1.copy()
    recomputations = 0
    stop_norm = (tolerance * float(vn1.max()) if tolerance is not None
                 else None)

    j0 = 0
    while j0 < k:
        if stop_norm is not None and j0 < n \
                and float(vn1[j0:].max(initial=0.0)) <= stop_norm:
            k = j0
            break
        nb = min(cfg.block_size, k - j0)
        # F accumulates the lazy trailing update: row i of F corresponds
        # to global column j0 + i, and after the panel the trailing
        # submatrix is updated as A <- A - V F^T.
        f = np.zeros((n - j0, nb))
        kb = 0
        cancelled = False
        for kk in range(nb):
            j = j0 + kk  # global pivot column == pivot row
            # --- pivot selection from downdated norms ------------------
            pj = j + int(np.argmax(vn1[j:]))
            if pj != j:
                work[:, [j, pj]] = work[:, [pj, j]]
                perm[[j, pj]] = perm[[pj, j]]
                vn1[[j, pj]] = vn1[[pj, j]]
                vn2[[j, pj]] = vn2[[pj, j]]
                f[[j - j0, pj - j0], :] = f[[pj - j0, j - j0], :]
            # --- apply pending panel reflectors to column j ------------
            # Rows j: of panel columns j0..j-1 are strictly below their
            # diagonals, so `work` holds pure reflector entries there.
            if kk > 0:
                work[j:, j] -= work[j:, j0:j] @ f[j - j0, :kk]
            # --- generate reflector ------------------------------------
            v, tau, beta = householder_vector(work[j:, j])
            taus[j] = tau
            work[j, j] = beta
            work[j + 1:, j] = v[1:]
            kb = kk + 1
            # --- accumulate F column kk --------------------------------
            if j + 1 < n:
                f[(j + 1 - j0):, kk] = tau * (work[j:, j + 1:].T @ v)
            f[: (j + 1 - j0), kk] = 0.0
            if kk > 0:
                vtv = work[j:, j0:j].T @ v
                f[:, kk] -= tau * (f[:, :kk] @ vtv)
            # --- bring the pivot row current, downdate norms -----------
            if j + 1 < n:
                vrow = np.empty(kk + 1)
                vrow[:kk] = work[j, j0:j]
                vrow[kk] = 1.0
                work[j, j + 1:] -= vrow @ f[(j + 1 - j0):, : kk + 1].T
                idx = np.arange(j + 1, n)
                nz = vn1[idx] > 0.0
                temp = np.zeros(idx.size)
                ratio = np.zeros(idx.size)
                ratio[nz] = np.abs(work[j, idx[nz]]) / vn1[idx[nz]]
                temp[nz] = np.maximum(0.0,
                                      (1.0 + ratio[nz]) * (1.0 - ratio[nz]))
                with np.errstate(divide="ignore", invalid="ignore"):
                    ref = np.where(vn2[idx] > 0.0, vn1[idx] / vn2[idx], 0.0)
                temp2 = temp * ref * ref
                bad = (temp2 <= tol3z) & nz
                vn1[idx] = vn1[idx] * np.sqrt(temp)
                if np.any(bad):
                    cancelled = True
                    break
        # --- BLAS-3 trailing update below the factored panel rows ------
        jlast = j0 + kb
        if kb > 0 and jlast < n and jlast < m:
            # Rows j0..jlast-1 of the trailing columns are already
            # current (pivot-row updates); rows jlast: get the block
            # update.  V rows jlast: of panel columns are strictly below
            # the diagonal, stored directly in `work`.
            work[jlast:, jlast:] -= (work[jlast:, j0:jlast]
                                     @ f[(jlast - j0):, :kb].T)
        if cancelled and jlast < n:
            if jlast < m:
                vn1[jlast:] = hostmath.column_norms(work[jlast:, jlast:])
            else:
                vn1[jlast:] = 0.0
            vn2[jlast:] = vn1[jlast:]
            recomputations += 1
        j0 = jlast

    taus = taus[:k]
    q = _materialize_q(work, taus, m, k)
    r = np.triu(work[:k, :])
    return QRCPResult(q=q, r=r, perm=perm, k=k,
                      norm_recomputations=recomputations)


def qrcp(a: np.ndarray, k: Optional[int] = None,
         method: str = "blocked",
         config: Optional[QRCPConfig] = None) -> QRCPResult:
    """Dispatch to :func:`qp3_blocked` (default) or :func:`qrcp_column`.

    ``method`` is ``"blocked"`` or ``"column"``.
    """
    if method == "blocked":
        return qp3_blocked(a, k=k, config=config)
    if method == "column":
        return qrcp_column(a, k=k)
    raise ShapeError(f"unknown qrcp method {method!r}")
