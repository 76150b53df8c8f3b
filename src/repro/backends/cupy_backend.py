"""Optional CuPy backend: the paper's actual cuBLAS/cuSOLVER stack.

Auto-detected like the torch backend: the module always imports, and
:meth:`CupyBackend.available` is true only when ``cupy`` is installed
*and* a CUDA device is reachable (a CuPy install on a GPU-less host
imports fine but cannot allocate, so availability probes the device
count rather than the import alone).

This is the closest runtime to the SC'15 setup — cuBLAS GEMM,
cuSOLVER POTRF/GESVD — so wall-clock numbers from this backend are the
ones to put next to the modeled K40c clock in BENCH artifacts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import CholeskyBreakdownError, ConfigurationError
from .base import ComputeBackend

try:  # pragma: no cover - exercised only where cupy is installed
    import cupy
except Exception:  # ImportError, or a broken CUDA toolchain
    cupy = None

__all__ = ["CupyBackend"]


class CupyBackend(ComputeBackend):
    """CuPy math engine on CUDA, host-in/host-out."""

    name = "cupy"
    is_model = False

    def __init__(self) -> None:
        super().__init__()
        if not self.available():
            raise ConfigurationError(
                "backend 'cupy' needs CuPy and a reachable CUDA device; "
                "pick 'simulated'/'numpy' instead")

    @classmethod
    def available(cls) -> bool:
        if cupy is None:
            return False
        try:  # pragma: no cover - needs CUDA hardware
            return int(cupy.cuda.runtime.getDeviceCount()) > 0
        except Exception:
            return False

    # Everything below needs a CUDA device, so coverage on CPU-only CI
    # stops at the constructor guard.
    def synchronize(self) -> None:  # pragma: no cover
        cupy.cuda.get_current_stream().synchronize()

    # -- transfers -------------------------------------------------------
    def _to_device(self, a: np.ndarray):  # pragma: no cover
        return cupy.asarray(np.ascontiguousarray(a), dtype=cupy.float64)

    def _to_host(self, a) -> np.ndarray:  # pragma: no cover
        if cupy is not None and isinstance(a, cupy.ndarray):
            return cupy.asnumpy(a)
        return np.asarray(a)

    def _t(self, a: np.ndarray):  # pragma: no cover
        a = np.asarray(a)
        self.stats.record_h2d(a.nbytes)
        return self._to_device(a)

    def _n(self, d) -> np.ndarray:  # pragma: no cover
        out = self._to_host(d)
        self.stats.record_d2h(out.nbytes)
        return out

    # -- kernels ---------------------------------------------------------
    def _gemm(self, a, b) -> np.ndarray:  # pragma: no cover
        return self._n(self._t(a) @ self._t(b))

    def _cholesky(self, g) -> np.ndarray:  # pragma: no cover
        try:
            # cupy.linalg.cholesky returns the lower factor L with
            # L L^T = g; the contract wants upper R = L^T.
            low = cupy.linalg.cholesky(self._t(g))
        except Exception as exc:
            raise CholeskyBreakdownError(str(exc)) from exc
        res = self._n(low.T.copy())
        if not np.all(np.isfinite(res)):
            # Older CuPy reports POTRF breakdown as NaNs, not a raise.
            raise CholeskyBreakdownError(
                "cuSOLVER potrf produced non-finite factor")
        return res

    def _solve_triangular(self, r, b, lower: bool, trans: str
                          ) -> np.ndarray:  # pragma: no cover
        import cupyx.scipy.linalg as cpsl
        return self._n(cpsl.solve_triangular(
            self._t(r), self._t(b), lower=lower, trans=trans))

    def _svd(self, a, full_matrices: bool):  # pragma: no cover
        u, s, vh = cupy.linalg.svd(self._t(a),
                                   full_matrices=full_matrices)
        return self._n(u), self._n(s), self._n(vh)

    def _qr(self, a):  # pragma: no cover
        q, r = cupy.linalg.qr(self._t(a))
        return self._n(q), self._n(r)

    def _row_norms(self, a) -> np.ndarray:  # pragma: no cover
        return self._n(cupy.linalg.norm(self._t(a), axis=1))

    def _norm(self, a, ord):  # pragma: no cover
        return float(cupy.linalg.norm(self._t(a), ord=ord))

    def _fft(self, a, n: Optional[int], axis: int
             ) -> np.ndarray:  # pragma: no cover
        d = self._t(a)
        out = cupy.fft.fft(d, n=n, axis=axis)
        res = cupy.asnumpy(out)
        self.stats.record_d2h(res.nbytes)
        return res
