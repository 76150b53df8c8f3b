"""Optional PyTorch backend: real hardware speed behind the contract.

Auto-detected at import (VRAMancer's ``compute_engine.py`` pattern):
if ``torch`` is importable the backend registers as available and picks
the best device — CUDA, then Apple MPS, then CPU — at construction.
When torch is absent, :meth:`TorchBackend.available` is simply false
and everything else in the repo (including ``repro-bench --backend
torch`` error messages and the skip logic of the parity test suite)
degrades gracefully; nothing here may raise at import time.

Numerical contract: float64 everywhere torch supports it (CUDA/CPU),
float32 on MPS (which has no float64 unit) — so results match the
modeling backends to fp tolerance, not bit-for-bit.  The sampling
matrix Ω is still drawn through the shared numpy PCG64 generator
(:meth:`repro.backends.base.ComputeBackend.make_rng`), so backends
diverge only in kernel arithmetic, never in the random subspace.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import CholeskyBreakdownError, ConfigurationError
from .base import ComputeBackend

try:  # pragma: no cover - exercised only where torch is installed
    import torch
except Exception:  # ImportError, or a broken install
    torch = None

__all__ = ["TorchBackend"]


class TorchBackend(ComputeBackend):
    """Torch math engine (CUDA > MPS > CPU), host-in/host-out."""

    name = "torch"
    is_model = False

    def __init__(self, device: Optional[str] = None) -> None:
        super().__init__()
        if torch is None:
            raise ConfigurationError(
                "backend 'torch' needs PyTorch installed; pick "
                "'simulated'/'numpy', or pip install torch")
        self.device = torch.device(device) if device is not None \
            else self._detect_device()
        # MPS has no float64; everything else runs double precision.
        self.dtype = (torch.float32 if self.device.type == "mps"
                      else torch.float64)

    @staticmethod
    def _detect_device() -> "torch.device":
        if torch.cuda.is_available():
            return torch.device("cuda")
        mps = getattr(torch.backends, "mps", None)
        if mps is not None and mps.is_available():
            return torch.device("mps")
        return torch.device("cpu")

    @classmethod
    def available(cls) -> bool:
        return torch is not None

    def synchronize(self) -> None:
        if torch is not None and self.device.type == "cuda":
            torch.cuda.synchronize(self.device)

    # -- transfers -------------------------------------------------------
    def _to_device(self, a: np.ndarray) -> "torch.Tensor":
        return torch.as_tensor(np.ascontiguousarray(a),
                               dtype=self.dtype, device=self.device)

    def _to_host(self, a) -> np.ndarray:
        if torch is not None and isinstance(a, torch.Tensor):
            return a.detach().cpu().numpy().astype(np.float64, copy=False)
        return np.asarray(a)

    def _t(self, a: np.ndarray) -> "torch.Tensor":
        """H2D with traffic accounting (internal operand staging)."""
        a = np.asarray(a)
        self.stats.record_h2d(a.nbytes)
        return self._to_device(a)

    def _n(self, t: "torch.Tensor") -> np.ndarray:
        """D2H with traffic accounting."""
        out = self._to_host(t)
        self.stats.record_d2h(out.nbytes)
        return out

    # -- kernels ---------------------------------------------------------
    def _gemm(self, a, b) -> np.ndarray:
        return self._n(self._t(a) @ self._t(b))

    def _cholesky(self, g) -> np.ndarray:
        try:
            return self._n(torch.linalg.cholesky(self._t(g), upper=True))
        except Exception as exc:  # torch.linalg.LinAlgError (version-dep.)
            raise CholeskyBreakdownError(str(exc)) from exc

    def _solve_triangular(self, r, b, lower: bool, trans: str
                          ) -> np.ndarray:
        tr, tb = self._t(r), self._t(b)
        if trans in ("T", "t", 1):
            # Solving r^T x = b: the transpose of an upper factor is
            # lower triangular (and vice versa).
            tr, lower = tr.mT, not lower
        # torch needs a 2-D right-hand side; a vector solves as one
        # column and comes back 1-D, as under scipy.
        vector = tb.ndim == 1
        x = torch.linalg.solve_triangular(
            tr, tb[:, None] if vector else tb, upper=not lower)
        return self._n(x[:, 0] if vector else x)

    def _svd(self, a, full_matrices: bool
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, s, vh = torch.linalg.svd(self._t(a),
                                    full_matrices=full_matrices)
        return self._n(u), self._n(s), self._n(vh)

    def _qr(self, a) -> Tuple[np.ndarray, np.ndarray]:
        q, r = torch.linalg.qr(self._t(a))
        return self._n(q), self._n(r)

    def _row_norms(self, a) -> np.ndarray:
        return self._n(torch.linalg.vector_norm(self._t(a), dim=1))

    def _norm(self, a, ord):
        t = self._t(a)
        if t.ndim == 1:
            return float(torch.linalg.vector_norm(
                t, ord=2 if ord is None else ord))
        if ord is None:
            return float(torch.linalg.vector_norm(t))
        return float(torch.linalg.matrix_norm(t, ord=ord))

    def _fft(self, a, n: Optional[int], axis: int) -> np.ndarray:
        # MPS FFT support is partial; run the transform on CPU there.
        t = torch.as_tensor(np.ascontiguousarray(a), dtype=self.dtype,
                            device="cpu" if self.device.type == "mps"
                            else self.device)
        self.stats.record_h2d(np.asarray(a).nbytes)
        out = torch.fft.fft(t, n=n, dim=axis)
        res = out.detach().cpu().numpy().astype(np.complex128, copy=False)
        self.stats.record_d2h(res.nbytes)
        return res
