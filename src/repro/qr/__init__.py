"""Orthogonalization and rank-revealing factorization kernels.

Everything the paper's Section 2-4 relies on, implemented from scratch
on NumPy:

- :mod:`repro.qr.householder` — blocked Householder QR (HHQR) with the
  compact-WY representation.
- :mod:`repro.qr.cholqr` — Cholesky QR for tall-skinny columns and
  short-wide rows (the paper's main orthogonalization kernel), with
  full reorthogonalization (CholQR2), a shifted retry, and a
  mixed-precision variant.
- :mod:`repro.qr.gram_schmidt` — classical / modified Gram-Schmidt and
  the block orthogonalization ``BOrth`` used by the power iteration.
- :mod:`repro.qr.qrcp` — QR with column pivoting: the BLAS-2 column
  algorithm and the blocked QP3 with column-norm downdating.
- :mod:`repro.qr.tsqr` — communication-avoiding TSQR (extension).
"""

from .utils import (
    orthogonality_defect,
    solve_upper_triangular,
)
from .householder import (
    householder_vector,
    householder_qr,
    apply_q,
    HouseholderFactors,
)
from .cholqr import (
    cholqr_columns,
    cholqr_rows,
    cholqr2_columns,
    cholqr2_rows,
    mixed_precision_cholqr_rows,
)
from .gram_schmidt import cgs, mgs, block_orth_columns, block_orth_rows
from .qrcp import qrcp_column, qp3_blocked, qrcp, QRCPResult
from .caqp3 import caqp3, tournament_pivots
from .tsqr import tsqr

__all__ = [
    "orthogonality_defect",
    "solve_upper_triangular",
    "householder_vector",
    "householder_qr",
    "apply_q",
    "HouseholderFactors",
    "cholqr_columns",
    "cholqr_rows",
    "cholqr2_columns",
    "cholqr2_rows",
    "mixed_precision_cholqr_rows",
    "cgs",
    "mgs",
    "block_orth_columns",
    "block_orth_rows",
    "qrcp_column",
    "qp3_blocked",
    "qrcp",
    "QRCPResult",
    "caqp3",
    "tournament_pivots",
    "tsqr",
]
