"""The compute-backend contract behind the executor layer.

A :class:`ComputeBackend` supplies the *math* of the executor operation
set — GEMM, the CholQR building blocks (Gram/Cholesky/triangular
solve), the pivoted QR of the sample, the small SVD, row norms, the
sampling RNG, and the host↔device transfer hooks — while the
executors in :mod:`repro.gpu` keep the *accounting*: modeled kernel
time, phase attribution, device memory, and stream placement.  The
split means one pipeline can run

- bit-reproducibly on the modeling backends (``simulated`` — the
  default — and ``numpy``, which share the exact same host BLAS/LAPACK
  call sequence), and
- at true wall-clock speed on real hardware (``torch``/``cupy``) with
  no algorithm changes.

Canonical data form
-------------------
Backend methods accept and return **host** ``numpy.ndarray`` values.
A hardware backend moves operands through :meth:`to_device` /
:meth:`to_host` internally and records the traffic on :class:`its
stats <BackendStats>`, so the executor layer stays array-library
agnostic.  (Keeping operands device-resident across calls is an
optimization the contract deliberately leaves open; the transfer hooks
are where it will land.)

Every public kernel call is timed with the host monotonic clock into
``stats.wall_seconds`` — the "real wall-clock recorded alongside
modeled time" that :mod:`repro.obs` surfaces in BENCH artifacts.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import CholeskyBreakdownError, NonFiniteResultError
from . import hostmath

__all__ = ["BackendStats", "ComputeBackend"]


@dataclass
class BackendStats:
    """Wall-clock and transfer accounting for one backend instance."""

    #: Real seconds spent inside backend kernel calls (monotonic clock).
    wall_seconds: float = 0.0
    kernel_calls: int = 0
    h2d_bytes: int = 0
    h2d_calls: int = 0
    d2h_bytes: int = 0
    d2h_calls: int = 0
    _extra: dict = field(default_factory=dict, repr=False)

    def record_kernel(self, seconds: float) -> None:
        self.wall_seconds += seconds
        self.kernel_calls += 1

    def record_h2d(self, nbytes: int) -> None:
        self.h2d_bytes += int(nbytes)
        self.h2d_calls += 1

    def record_d2h(self, nbytes: int) -> None:
        self.d2h_bytes += int(nbytes)
        self.d2h_calls += 1

    def reset(self) -> None:
        self.wall_seconds = 0.0
        self.kernel_calls = 0
        self.h2d_bytes = self.h2d_calls = 0
        self.d2h_bytes = self.d2h_calls = 0

    def to_dict(self) -> dict:
        return {"wall_seconds": self.wall_seconds,
                "kernel_calls": self.kernel_calls,
                "h2d_bytes": self.h2d_bytes, "h2d_calls": self.h2d_calls,
                "d2h_bytes": self.d2h_bytes, "d2h_calls": self.d2h_calls}


class _KernelTimer:
    """Context manager charging elapsed wall time to a stats object."""

    __slots__ = ("stats", "t0")

    def __init__(self, stats: BackendStats):
        self.stats = stats

    def __enter__(self) -> "_KernelTimer":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.record_kernel(time.perf_counter() - self.t0)


class ComputeBackend(abc.ABC):
    """Abstract math engine; see the module docstring for the contract.

    Subclasses implement the ``_``-prefixed kernels; the public methods
    add uniform wall-clock accounting and error mapping and must not be
    overridden.
    """

    #: Registry name (``repro-bench --backend <name>``).
    name: str = "abstract"
    #: True for backends whose runs feed the modeled clock (figures
    #: must be bit-reproducible across machines).
    is_model: bool = False
    #: True when repeated runs with one seed are bit-identical.
    deterministic: bool = True

    def __init__(self) -> None:
        self.stats = BackendStats()

    # -- availability ----------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        """Whether this backend's runtime dependency is importable (and
        its device reachable).  Always true for the host backends."""
        return True

    # -- rng -------------------------------------------------------------
    def make_rng(self, seed: Optional[int] = None) -> np.random.Generator:
        """Sampling-matrix PRNG.  Every backend draws Ω through numpy's
        PCG64 so a given seed produces the *same sampling matrix* on
        every backend — cross-backend parity is then a property of the
        kernels alone."""
        return np.random.default_rng(seed)

    def standard_normal(self, rng: np.random.Generator,
                        shape: Tuple[int, ...]) -> np.ndarray:
        """Draw the Gaussian sampling block Ω (cuRAND in the paper)."""
        return rng.standard_normal(shape)

    # -- transfers -------------------------------------------------------
    def to_device(self, a: np.ndarray):
        """H2D hook: adopt a host array into the backend's native form,
        recording the traffic.  Host backends pass through."""
        a = np.asarray(a)
        self.stats.record_h2d(a.nbytes)
        return self._to_device(a)

    def to_host(self, a) -> np.ndarray:
        """D2H hook: return a native array to host numpy form."""
        out = self._to_host(a)
        self.stats.record_d2h(np.asarray(out).nbytes)
        return out

    def synchronize(self) -> None:
        """Drain outstanding device work (no-op on host backends)."""

    def _to_device(self, a: np.ndarray):
        return a

    def _to_host(self, a) -> np.ndarray:
        return np.asarray(a)

    # -- public kernel API (uniform timing / error mapping) --------------
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` (the paper's BLAS-3 core)."""
        with _KernelTimer(self.stats):
            return self._gemm(a, b)

    def cholesky(self, g: np.ndarray) -> np.ndarray:
        """Upper Cholesky factor ``R`` with ``R^T R = g`` (POTRF).

        Raises :class:`repro.errors.CholeskyBreakdownError` when ``g``
        is not numerically SPD, whatever the native failure type, and
        :class:`repro.errors.NonFiniteResultError` (``factor="gram"``)
        when ``g`` has NaN or infinite entries: an overflowed Gram
        matrix, which no shift or Householder fallback can repair.
        """
        with _KernelTimer(self.stats):
            try:
                return self._cholesky(g)
            except (CholeskyBreakdownError, ValueError) as exc:
                # Checked only after the kernel failed (SciPy's own
                # finiteness check raises ValueError), so an SPD Gram
                # pays nothing for it.
                if np.isfinite(g).all():
                    raise
                raise NonFiniteResultError(
                    "the Gram matrix has NaN or infinite entries: its "
                    "input is non-finite or too large to square in "
                    "float64", factor="gram") from exc

    def solve_triangular(self, r: np.ndarray, b: np.ndarray,
                         lower: bool = False,
                         trans: str = "N") -> np.ndarray:
        """Triangular solve (TRSM); ``trans="T"`` solves ``r^T x = b``."""
        with _KernelTimer(self.stats):
            return self._solve_triangular(r, b, lower=lower, trans=trans)

    def svd(self, a: np.ndarray, full_matrices: bool = False
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense SVD ``U, s, Vt`` (the randomized SVD's small tail)."""
        with _KernelTimer(self.stats):
            return self._svd(a, full_matrices=full_matrices)

    def qr(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Reduced QR factorization of a tall matrix."""
        with _KernelTimer(self.stats):
            return self._qr(a)

    def qrcp(self, a: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """QR with column pivoting ``q, r, perm`` with
        ``a[:, perm] = q r`` (GEQP3; Step 2 on the sampled matrix)."""
        with _KernelTimer(self.stats):
            return self._qrcp(a)

    def row_norms(self, a: np.ndarray) -> np.ndarray:
        """Per-row Euclidean norms."""
        with _KernelTimer(self.stats):
            return self._row_norms(a)

    def norm(self, a: np.ndarray, ord=None) -> float:
        """Matrix/vector norm reduced to a host float."""
        with _KernelTimer(self.stats):
            return float(self._norm(a, ord=ord))

    def fft(self, a: np.ndarray, n: Optional[int] = None,
            axis: int = 0) -> np.ndarray:
        """DFT along ``axis`` padded to ``n`` (the SRFT operator)."""
        with _KernelTimer(self.stats):
            return self._fft(a, n=n, axis=axis)

    # -- kernels to implement -------------------------------------------
    @abc.abstractmethod
    def _gemm(self, a, b) -> np.ndarray: ...

    @abc.abstractmethod
    def _cholesky(self, g) -> np.ndarray: ...

    @abc.abstractmethod
    def _solve_triangular(self, r, b, lower: bool, trans: str
                          ) -> np.ndarray: ...

    @abc.abstractmethod
    def _svd(self, a, full_matrices: bool): ...

    @abc.abstractmethod
    def _qr(self, a): ...

    @abc.abstractmethod
    def _row_norms(self, a) -> np.ndarray: ...

    @abc.abstractmethod
    def _norm(self, a, ord): ...

    @abc.abstractmethod
    def _fft(self, a, n, axis) -> np.ndarray: ...

    def _qrcp(self, a) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Host LAPACK for every backend: the sample is only l x n, too
        # small to repay a device round trip.
        return hostmath.qr_pivoted(a)

    # -- misc ------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def _map_cholesky_breakdown(exc: Exception) -> CholeskyBreakdownError:
    """Uniform breakdown mapping helper for backend implementations."""
    return CholeskyBreakdownError(str(exc))
