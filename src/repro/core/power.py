"""The POWER iteration of Figure 2a.

``q`` rounds of the normalized power method sharpen the sampled
subspace: the error constant improves from ``c(p, Omega)`` to
``c(p, Omega)^{1/(2q+1)}`` (Halko-Martinsson-Tropp [9], eq. in
Section 3).  Because the condition number of the iterated block grows
exponentially with ``q``, each application of ``A`` / ``A^T`` is
followed by orthogonalization: a block Gram-Schmidt (``BOrth``)
against the previously accepted basis plus an intra-block QR (CholQR
with one full reorthogonalization in the paper's experiments).

The iteration is written over an optional *previous basis* so the same
function serves the fixed-rank algorithm (no previous basis) and the
adaptive-``l`` scheme (new block orthogonalized against the accepted
subspace, Figure 3 line 7).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..gpu.device import ArrayLike, NumpyExecutor, shape_of

__all__ = ["power_iterate"]


def power_iterate(ex: NumpyExecutor, a: ArrayLike, b_new: ArrayLike,
                  q: int,
                  b_prev: Optional[ArrayLike] = None,
                  c_prev: Optional[ArrayLike] = None,
                  scheme: str = "cholqr2",
                  reorthogonalize: bool = True,
                  ) -> Tuple[ArrayLike, Optional[ArrayLike]]:
    """Run ``q`` power iterations on the new sampled block.

    Implements lines 2-13 of Figure 2a with the block split
    ``B = [B_prev; B_new]``:

    1. ``B_new <- BOrth(B_prev, B_new)``; ``B_new <- QR(B_new)``
    2. ``C_new <- B_new A^T``
    3. ``C_new <- BOrth(C_prev, C_new)``; ``C_new <- QR(C_new)``
    4. ``B_new <- C_new A``

    Parameters
    ----------
    ex:
        Executor (math + timing).
    a:
        The ``m x n`` input matrix.
    b_new:
        The freshly sampled ``l_new x n`` block.
    q:
        Number of iterations; ``q = 0`` returns ``(b_new, None)``
        untouched (Figure 2b then proceeds straight to QRCP).
    b_prev, c_prev:
        Previously accepted orthonormal bases (``l_prev x n`` and
        ``l_prev x m``) for the adaptive scheme; ``None`` for the
        fixed-rank problem.
    scheme, reorthogonalize:
        Intra-block orthogonalization kernel and whether ``BOrth``
        applies a second pass.

    Returns
    -------
    (b_new, c_new):
        The iterated row block and its ``A^T``-side companion
        (``None`` when ``q = 0``).
    """
    if q < 0:
        raise ShapeError(f"q must be >= 0, got {q}")
    m, n = shape_of(a)
    lb, nb = shape_of(b_new)
    if nb != n:
        raise ShapeError(f"B block has {nb} columns, expected n = {n}")
    if b_prev is not None and shape_of(b_prev)[1] != n:
        raise ShapeError("b_prev column count mismatch")
    if c_prev is not None and shape_of(c_prev)[1] != m:
        raise ShapeError("c_prev column count mismatch")

    c_new: Optional[ArrayLike] = None
    for _ in range(q):
        b_new = ex.block_orth_rows(b_prev, b_new, reorth=reorthogonalize)
        b_new = ex.orth_rows(b_new, scheme=scheme)
        c_new = ex.iter_gemm_at(b_new, a)
        c_new = ex.block_orth_rows(c_prev, c_new, reorth=reorthogonalize)
        c_new = ex.orth_rows(c_new, scheme=scheme)
        b_new = ex.iter_gemm_a(c_new, a)
    return b_new, c_new
