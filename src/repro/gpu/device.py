"""The simulated GPU device and the executor layer.

Algorithms in :mod:`repro.core` are written once against the
:class:`NumpyExecutor` operation set.  Executors differ only in what
they *charge* for each operation:

- :class:`NumpyExecutor` — backend math, zero modeled time.  Used
  for numerics (Figure 6/16) and tests.
- :class:`GPUExecutor` — same math, but every operation also charges
  the :class:`SimulatedGPU`'s kernel model, tagged with the paper's
  phase legend.  Supports **symbolic** arrays (:class:`SymArray`) that
  carry only shape/dtype, so paper-scale performance sweeps never
  allocate the matrices.
- :class:`repro.gpu.multigpu.MultiGPUExecutor` — models the 1D
  block-row multi-GPU runtime of Figure 4.

The GEMM, orthogonalization and triangular ops are built on three
charged primitives (``_gemm``, ``_orth``, ``_trsolve``): each reads its
kernel dimensions from its operands, charges them, then runs the math.
``repro-bench analyze --audit-costs`` checks the per-phase flops that
result against the Figure 5 closed forms.

Since the backend split, no executor calls dense linear algebra
directly: every factorization/FFT/norm goes through the executor's
:class:`repro.backends.base.ComputeBackend` handle (``self.backend``),
so ``NumpyExecutor(backend="torch")`` runs the identical pipeline on
real hardware.  The default is the bit-reproducible ``simulated``
backend; see ``docs/backends.md``.
"""

from __future__ import annotations

from math import sqrt
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import resolve_backend
from ..backends.hostmath import LinAlgError
from ..config import ORTH_SCHEMES
from ..errors import (ConfigurationError, RankDeficientError, ShapeError,
                      SymbolicExecutionError)
from ..perfmodel.costs import DEFAULT_FAST_MEMORY
from ..qr import cholqr, gram_schmidt, householder
from ..qr.tsqr import tsqr as tsqr_factorize
from ..qr.utils import solve_upper_triangular
from .kernels import KernelModel, gemm_flops, qp3_flops, qr_flops
from .memory import DeviceMemory, TransferModel
from .specs import GPUSpec, KEPLER_K40C
from .trace import TimeLine

__all__ = ["SymArray", "shape_of", "is_symbolic", "SimulatedGPU",
           "NumpyExecutor", "GPUExecutor"]

ArrayLike = Union[np.ndarray, "SymArray"]

_FLOAT64 = np.dtype(np.float64)


class SymArray:
    """A shape-only stand-in for a device array.

    Supports just enough structure (shape, dtype, transpose, column
    take, vstack) for the algorithms to run their *control flow* at
    paper scale without allocating data.  Any operation that would need
    actual values raises :class:`repro.errors.SymbolicExecutionError`.
    """

    __slots__ = ("shape", "dtype")

    def __init__(self, shape: Tuple[int, ...], dtype=np.float64):
        # Built several times per executor op in a symbolic sweep, so
        # convert once, check in one loop, and skip np.dtype() for the
        # default.
        shape = tuple(map(int, shape))
        for s in shape:
            if s < 0:
                raise ShapeError(f"negative dimension in {shape}")
        self.shape = shape
        self.dtype = _FLOAT64 if dtype is np.float64 else np.dtype(dtype)

    @property
    def T(self) -> "SymArray":
        return SymArray(self.shape[::-1], self.dtype)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def __getitem__(self, key) -> "SymArray":
        """2-D slicing with plain slices (steps of 1) or index arrays."""
        if not isinstance(key, tuple):
            key = (key, slice(None))
        if len(key) != 2 or len(self.shape) != 2:
            raise SymbolicExecutionError(
                "SymArray only supports 2-D (rows, cols) slicing")
        dims = []
        for axis, k in enumerate(key):
            n = self.shape[axis]
            if isinstance(k, slice):
                start, stop, step = k.indices(n)
                if step != 1:
                    raise SymbolicExecutionError(
                        "SymArray slicing requires unit steps")
                dims.append(max(0, stop - start))
            elif isinstance(k, (list, np.ndarray)):
                dims.append(len(k))
            else:
                raise SymbolicExecutionError(
                    f"unsupported SymArray index {k!r}")
        return SymArray(tuple(dims), self.dtype)

    def __repr__(self) -> str:
        return f"SymArray(shape={self.shape}, dtype={self.dtype})"


def is_symbolic(*arrays: ArrayLike) -> bool:
    """True when any argument is a :class:`SymArray`."""
    for a in arrays:
        if isinstance(a, SymArray):
            return True
    return False


def shape_of(a: ArrayLike) -> Tuple[int, ...]:
    """Shape of a real or symbolic array."""
    return tuple(a.shape)


def _mm(a: ArrayLike, b: ArrayLike, backend) -> ArrayLike:
    """The math of a charged product (its caller checked the shapes):
    symbolic-aware, real data on ``backend``."""
    if is_symbolic(a, b):
        return SymArray((shape_of(a)[0], shape_of(b)[1]))
    return backend.gemm(a, b)


def _take_columns(a: ArrayLike, idx: Union[np.ndarray, Sequence[int]]
                  ) -> ArrayLike:
    if is_symbolic(a):
        return SymArray((shape_of(a)[0], len(idx)))
    return a[:, np.asarray(idx)]


def _vstack(parts: Sequence[ArrayLike]) -> ArrayLike:
    cols = {shape_of(p)[1] for p in parts}
    if len(cols) != 1:
        raise ShapeError(f"vstack column mismatch: {cols}")
    rows = sum(shape_of(p)[0] for p in parts)
    if is_symbolic(*parts):
        return SymArray((rows, cols.pop()))
    return np.vstack(parts)


def _orth_rows(b: np.ndarray, scheme: str, backend) -> np.ndarray:
    """Q of the rows of a short-wide block with one of
    :data:`repro.config.ORTH_SCHEMES`."""
    if scheme in ("cholqr", "cholqr2"):
        # Householder fallback: a rank-deficient block (subspace
        # exhaustion in the adaptive scheme) breaks the shifted retry
        # but HHQR still returns an exactly orthonormal Q.
        q, _ = (cholqr.cholqr2_rows(b, fallback="householder",
                                    backend=backend) if scheme == "cholqr2"
                else cholqr.cholqr_rows(b, fallback="householder",
                                        backend=backend))
        return q
    if scheme == "mixed_cholqr":
        q, _ = cholqr.mixed_precision_cholqr_rows(b, backend=backend)
        return q
    if scheme == "householder":
        return householder.householder_qr(b.T).q().T
    if scheme == "cgs":
        return gram_schmidt.cgs(b.T)[0].T
    if scheme == "mgs":
        return gram_schmidt.mgs(b.T)[0].T
    if scheme == "tsqr":
        return tsqr_factorize(b.T)[0].T
    raise ConfigurationError(f"unhandled scheme {scheme!r}")


def _qr_columns(ap: np.ndarray, scheme: str, backend
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(Q, R)`` of the columns of a tall-skinny block."""
    if scheme == "cholqr2":
        return cholqr.cholqr2_columns(ap, backend=backend)
    if scheme == "cholqr":
        return cholqr.cholqr_columns(ap, fallback="shift", backend=backend)
    if scheme == "householder":
        f = householder.householder_qr(ap)
        return f.q(), f.r()
    if scheme == "tsqr":
        return tsqr_factorize(ap)
    raise ConfigurationError(
        f"qr_selected supports cholqr/cholqr2/householder/tsqr, "
        f"got {scheme!r}")


def _words_bytes(flops: float, *operand_elems: int) -> float:
    """Bytes moved per the blocked-kernel word model of
    :mod:`repro.perfmodel.costs`: ``flops / sqrt(M)`` slow-memory words
    plus the operands themselves, in 8-byte elements."""
    return 8.0 * (flops / sqrt(DEFAULT_FAST_MEMORY) + sum(operand_elems))


class SimulatedGPU:
    """One simulated device: kernel model + timeline + memory.

    Every :meth:`charge` lands in :attr:`timeline`, the device's
    per-phase counters (seconds, calls, FLOPs, bytes moved).  A
    :class:`repro.obs.spans.SpanRecorder` attached via
    :meth:`attach_recorder` also logs it as a kernel carrying the
    FLOP/bytes estimates and the memory high-water mark sampled at
    charge time.
    """

    def __init__(self, spec: GPUSpec = KEPLER_K40C, device_id: int = 0):
        spec.validate()
        self.spec = spec
        self.device_id = device_id
        self.kernels = KernelModel(spec)
        self.timeline = TimeLine()
        self.memory = DeviceMemory(spec.memory_bytes)
        self.transfers = TransferModel(spec.pcie_bw_gbs, spec.pcie_latency_s)
        self.recorder = None  # Optional[repro.obs.spans.SpanRecorder]

    @property
    def elapsed(self) -> float:
        """Total modeled seconds on this device."""
        return self.timeline.total

    def attach_recorder(self, recorder) -> None:
        """Mirror every subsequent charge into ``recorder`` (pass
        ``None`` to detach)."""
        self.recorder = recorder

    def charge(self, phase: str, seconds: float, label: str = "",
               flops: float = 0.0, bytes_moved: float = 0.0,
               labels: Sequence[str] = ()) -> None:
        # The timeline checks the phase and the seconds before anything
        # lands, so a bad charge reaches neither it nor the recorder.
        self.timeline.charge(phase, seconds, flops, bytes_moved)
        if self.recorder is not None:
            self.recorder.record_kernel(
                phase=phase, label=label or phase, seconds=seconds,
                flops=flops, bytes_moved=bytes_moved,
                device_id=self.device_id,
                memory_high_water=self.memory.high_water,
                labels=labels)

    def reset(self) -> None:
        """Fresh timeline and memory for a new run."""
        self.timeline = TimeLine()
        self.memory.reset()


class NumpyExecutor:
    """Pure-NumPy execution of the algorithm operation set.

    All ``_t_*`` timing hooks are no-ops; subclasses charge devices.
    The RNG lives on the executor so runs are reproducible end to end.

    ``backend`` selects the math engine — ``None`` (session default),
    a registry name like ``"numpy"``/``"torch"``, or a live
    :class:`repro.backends.base.ComputeBackend`.  The RNG is built by
    the backend but is numpy PCG64 on every engine, so one seed gives
    the same sampling matrix everywhere.  It is built on first use of
    :attr:`rng`, so a symbolic run never seeds one.
    """

    #: Executors that cannot run symbolic arrays set this False.
    supports_symbolic = False

    def __init__(self, seed: Optional[int] = None, backend=None):
        self.backend = resolve_backend(backend)
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The sampling-matrix PRNG: ``backend.make_rng(seed)``, built
        on first access (same seed, same PCG64 stream as building it
        up front)."""
        if self._rng is None:
            self._rng = self.backend.make_rng(self._seed)
        return self._rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    # -- introspection ---------------------------------------------------
    @property
    def seconds(self) -> float:
        """Modeled elapsed seconds (0 for the pure-NumPy executor)."""
        return 0.0

    @property
    def timeline(self) -> TimeLine:
        return TimeLine()

    def reset_clock(self) -> None:
        """Forget accumulated modeled time (no-op here)."""

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.obs.spans.SpanRecorder` (no-op here:
        the pure-NumPy executor charges nothing)."""

    def bind(self, a: ArrayLike) -> None:
        """Register the input matrix before a run (used by distributed
        executors to establish the partitioned dimension; no-op here)."""

    # -- transfers --------------------------------------------------------
    def to_device(self, a: ArrayLike) -> ArrayLike:
        """Upload ``a`` to modeled device memory.

        Observation-only: the backend hook records the h2d transfer in
        :class:`repro.backends.base.BackendStats` (host backends return
        the array unchanged, so modeled figures are bit-identical).
        Symbolic arrays pass through untouched.
        """
        if is_symbolic(a):
            return a
        return self.backend.to_device(a)

    def to_host(self, a: ArrayLike) -> ArrayLike:
        """Download a device-resident value back to host-canonical
        form, recording the d2h transfer in ``BackendStats``.

        Observation-only, like :meth:`to_device`.  Symbolic arrays
        pass through untouched.
        """
        if is_symbolic(a):
            return a
        return self.backend.to_host(a)

    # -- timing hooks (overridden by device executors) --------------------
    # The GEMM, orthogonalization and triangular hooks are called only
    # by the charged primitives below, with dimensions read from the
    # operands.  ``split``/``reads`` place a GEMM on the multi-GPU
    # runtime (see :meth:`_gemm`); one device ignores them.
    def _t_gemm(self, m: int, n: int, k: int, phase: str,
                split: Optional[str] = None,
                reads: Sequence[str] = ()) -> None: ...
    def _t_prng(self, count: int) -> None: ...
    def _t_fft(self, m: int, n: int, axis: str) -> None: ...
    def _t_orth(self, rows: int, cols: int, scheme: str, reorth: bool,
                phase: str) -> None: ...
    def _t_block_orth(self, prev: int, new: int, length: int,
                      reorth: bool, phase: str) -> None: ...
    def _t_qrcp(self, m: int, n: int, k: int) -> None: ...
    def _t_trsolve(self, rows: int, cols: int, phase: str) -> None: ...
    def _t_copy(self, nbytes: int, phase: str) -> None: ...
    def _t_svd(self, m: int, n: int, phase: str) -> None: ...
    def _t_rownorms(self, rows: int, cols: int, phase: str) -> None: ...

    # -- charged primitives -----------------------------------------------
    # Each reads its kernel dimensions from its operands, charges them,
    # then runs the math: an op cannot bill a product it did not compute.
    def _gemm(self, x: ArrayLike, y: ArrayLike, phase: str,
              split: Optional[str] = None,
              reads: Sequence[str] = ()) -> ArrayLike:
        """``X Y``, charged as the ``rows(X) x cols(Y) x cols(X)`` GEMM.

        ``split`` names the dimension a multi-GPU executor distributes
        (``"inner"``: the contraction, leaving partial sums to reduce;
        ``"cols"``: the columns of the result) and ``reads`` the logical
        buffers its local kernels read.
        """
        m, k = shape_of(x)
        k_y, n = shape_of(y)
        if k != k_y:
            raise ShapeError(f"matmul mismatch: {shape_of(x)} @ "
                             f"{shape_of(y)}")
        self._t_gemm(m, n, k, phase, split, reads)
        return _mm(x, y, self.backend)

    def _gemm_stacked(self, xs: Sequence[ArrayLike], y: ArrayLike,
                      phase: str) -> list:
        """``X_i Y`` for every block, charged as ONE stacked
        ``(sum rows(X_i)) x cols(Y) x rows(Y)`` GEMM; each block's
        product is computed on its own (see :meth:`sample_gemm_stacked`).
        """
        k, n = shape_of(y)
        rows = 0
        for x in xs:
            if shape_of(x)[1] != k:
                raise ShapeError(f"matmul mismatch: {shape_of(x)} @ "
                                 f"{shape_of(y)}")
            rows += shape_of(x)[0]
        self._t_gemm(rows, n, k, phase)
        return [_mm(x, y, self.backend) for x in xs]

    def _orth(self, x: ArrayLike, scheme: str, phase: str,
              columns: bool = False):
        """Orthonormalize ``x`` with ``scheme``, charged for its shape:
        the rows of a short-wide block (returns Q), or with
        ``columns=True`` the columns of a tall-skinny one (returns
        ``(Q, R)``).  ``cholqr2`` is the reorthogonalized scheme."""
        rows, cols = shape_of(x)
        self._t_orth(rows, cols, scheme, scheme == "cholqr2", phase)
        if columns:
            if is_symbolic(x):
                return SymArray((rows, cols)), SymArray((cols, cols))
            return _qr_columns(np.asarray(x), scheme, self.backend)
        if is_symbolic(x):
            return SymArray((rows, cols))
        return _orth_rows(x, scheme, self.backend)

    def _trsolve(self, r: ArrayLike, b: ArrayLike, phase: str,
                 assemble: bool = False) -> ArrayLike:
        """Triangular kernel with the ``k x k`` upper-triangular ``r``
        and a ``k x t`` block ``b``, charged for its operands: the solve
        ``R^{-1} B`` (TRSM), or with ``assemble=True`` the multiply
        ``R [I  B]`` (TRMM, same cost class) giving the ``k x (k + t)``
        factor.  A zero on the diagonal of ``r`` stops the solve with
        :class:`repro.errors.RankDeficientError`."""
        k = shape_of(r)[0]
        t = shape_of(b)[1]
        cols = k + t if assemble else t
        self._t_trsolve(k, cols, phase)
        if is_symbolic(r, b):
            return SymArray((k, cols))
        r, b = np.asarray(r), np.asarray(b)
        if assemble:
            return np.hstack([r, self.backend.gemm(r, b)])
        try:
            return solve_upper_triangular(r, b, backend=self.backend)
        except LinAlgError as exc:
            # The backend contract: LinAlgError means an exact zero on
            # the diagonal, and the first one is the revealed rank.
            rank = int(np.flatnonzero(np.diagonal(r) == 0.0)[0])
            raise RankDeficientError(
                f"R11 is singular at diagonal {rank}: the sampled matrix "
                f"has numerical rank {rank} < k={k}; request at most "
                f"{rank} columns", rank=rank) from exc

    # -- operations -------------------------------------------------------
    def prng_gaussian(self, rows: int, cols: int,
                      symbolic: bool = False) -> ArrayLike:
        """Generate the ``rows x cols`` Gaussian sampling matrix Omega
        (cuRAND in the paper)."""
        self._t_prng(rows * cols)
        if symbolic:
            if not self.supports_symbolic:
                raise SymbolicExecutionError(
                    "this executor does not support symbolic arrays")
            return SymArray((rows, cols))
        return self.backend.standard_normal(self.rng, (rows, cols))

    def sample_gemm(self, omega: ArrayLike, a: ArrayLike) -> ArrayLike:
        """Step 1 pruned Gaussian sampling ``B = Omega A``."""
        return self._gemm(omega, a, "sampling")

    def sample_gemm_stacked(self, omegas: Sequence[ArrayLike],
                            a: ArrayLike) -> list:
        """Coalesced Step-1 sketch of a request batch:
        ``B_i = Omega_i A`` for every rider, charged as ONE stacked
        ``(sum l_i) x n`` GEMM.

        On the modeled device the row blocks of
        ``[Omega_1; ...; Omega_b] A`` share a single kernel launch,
        and a GPU tile's k-loop ordering does not depend on the launch
        grid's M dimension — each block of the stacked product is
        bitwise the block's own product.  The host reference must
        compute the blocks separately to honour that: host BLAS kernel
        *dispatch* does depend on M, so a literal stacked host GEMM
        drifts in the last bits relative to a solo run.  This is the
        primitive behind :func:`repro.serve.batcher.run_jobs`'s
        bit-parity guarantee.
        """
        if len(omegas) == 0:
            raise ShapeError("sample_gemm_stacked needs >= 1 Omega")
        return self._gemm_stacked(omegas, a, "sampling")

    def fft_sample(self, a: ArrayLike, l: int, axis: str = "row",
                   ) -> ArrayLike:
        """Full-FFT sampling: FFT-transform A (padded to a power of
        two) and keep ``l`` randomly selected rows (Section 4).

        A real-to-complex transform's redundant half is discarded; the
        selected rows are returned as the real/imaginary interleaving
        so downstream stays in real arithmetic (the standard SRFT
        construction).
        """
        m, n = shape_of(a)
        sampled_dim = m if axis == "row" else n
        out_cols = n if axis == "row" else m
        if l > sampled_dim:
            raise ShapeError(f"cannot select {l} rows from {sampled_dim}")
        self._t_fft(m, n, axis)
        if is_symbolic(a):
            return SymArray((l, out_cols))
        if axis not in ("row", "col"):
            raise ConfigurationError(
                f"axis must be 'row' or 'col', got {axis!r}")
        # Real SRFT: Omega = sqrt(d/l) S F D with D a random sign
        # diagonal, F the (padded) DFT along the sampled dimension and
        # S a random row selection.  axis="col" samples the columns of
        # A, i.e. applies the operator to A^T (Figure 8b).
        target = a if axis == "row" else a.T
        d = target.shape[0]
        mp = 1 << max(1, (int(d) - 1).bit_length())
        signs = self.rng.choice([-1.0, 1.0], size=d)
        spectrum = self.backend.fft(target * signs[:, None], n=mp, axis=0)
        spectrum /= np.sqrt(mp)
        rows = self.rng.choice(mp, size=l, replace=False)
        picked = spectrum[rows, :]
        real_or_imag = self.rng.random(l) < 0.5
        parts = np.where(real_or_imag[:, None], picked.real, picked.imag)
        return np.ascontiguousarray(parts) * np.sqrt(2.0 * d / l)

    def iter_gemm_at(self, b: ArrayLike, a: ArrayLike) -> ArrayLike:
        """Power-iteration product ``C = B A^T``  (line 7 of Fig. 2a)."""
        return self._gemm(b, a.T, "gemm_iter")

    def iter_gemm_a(self, c: ArrayLike, a: ArrayLike) -> ArrayLike:
        """Power-iteration product ``B = C A``  (line 12 of Fig. 2a)."""
        return self._gemm(c, a, "gemm_iter")

    def orth_rows(self, b: ArrayLike, scheme: str = "cholqr2",
                  phase: str = "orth_iter") -> ArrayLike:
        """Orthonormalize the rows of a short-wide block; returns Q.

        ``scheme`` selects the kernel (see
        :data:`repro.config.ORTH_SCHEMES`); math runs through the
        corresponding :mod:`repro.qr` implementation.
        """
        if scheme not in ORTH_SCHEMES:
            raise ConfigurationError(
                f"unknown orth scheme {scheme!r}; expected {ORTH_SCHEMES}")
        l, n = shape_of(b)
        if l > n:
            raise ShapeError(f"orth_rows expects a short-wide block, "
                             f"got {l} x {n}")
        return self._orth(b, scheme, phase)

    def block_orth_rows(self, q_prev: Optional[ArrayLike], v: ArrayLike,
                        reorth: bool = True,
                        phase: str = "orth_iter") -> ArrayLike:
        """``BOrth``: orthogonalize the rows of ``v`` against the
        orthonormal rows of ``q_prev``; returns the updated block.

        With no previous rows there is nothing to project out, and
        ``v`` itself comes back: the callers hand the block straight to
        :meth:`orth_rows`, which never writes its input."""
        if q_prev is None or shape_of(q_prev)[0] == 0:
            return v
        lp = shape_of(q_prev)[0]
        lv, n = shape_of(v)
        self._t_block_orth(lp, lv, n, reorth, phase)
        if is_symbolic(q_prev, v):
            return SymArray((lv, n))
        w, _ = gram_schmidt.block_orth_rows(q_prev, v, reorthogonalize=reorth)
        return w

    def qrcp_sampled(self, b: ArrayLike, k: int) -> Tuple[ArrayLike,
                                                          ArrayLike,
                                                          np.ndarray]:
        """Step 2: truncated QRCP of the sampled matrix ``B``.

        Returns ``(Q_hat, R_hat, perm)``: the leading ``k`` columns of
        Q and rows of R from the backend's LAPACK ``geqp3`` (the
        from-scratch QP3 baseline is
        :func:`repro.qr.qrcp.qp3_blocked`).  Symbolic inputs get an
        identity permutation placeholder (the timing model is
        data-independent).
        """
        l, n = shape_of(b)
        k = min(k, l, n)
        self._t_qrcp(l, n, k)
        if is_symbolic(b):
            return SymArray((l, k)), SymArray((k, n)), np.arange(n)
        q, r, perm = self.backend.qrcp(np.asarray(b))
        return q[:, :k], r[:k, :], perm

    def take_columns(self, a: ArrayLike, idx: Union[np.ndarray,
                                                    Sequence[int]]
                     ) -> ArrayLike:
        """Gather the pivot columns ``A P_{1:k}`` (device-side copy)."""
        m = shape_of(a)[0]
        self._t_copy(8 * m * len(idx), phase="other")
        return _take_columns(a, idx)

    def qr_selected(self, ap: ArrayLike, scheme: str = "cholqr2"
                    ) -> Tuple[ArrayLike, ArrayLike]:
        """Step 3: tall-skinny QR of the selected columns ``A P_{1:k}``.

        Returns ``(Q, R_bar)``; CholQR on the GPU in the paper.
        """
        m, k = shape_of(ap)
        if m < k:
            raise ShapeError(f"qr_selected expects tall-skinny, got {m}x{k}")
        return self._orth(ap, scheme, "qr", columns=True)

    def solve_upper(self, r11: ArrayLike, r12: ArrayLike,
                    phase: str = "other") -> ArrayLike:
        """``T = R11^{-1} R12`` (line 9 of Fig. 2b), triangular solve.

        A singular ``R11`` (the sampled matrix has rank below ``k``)
        raises :class:`repro.errors.RankDeficientError` carrying the
        revealed rank.
        """
        return self._trsolve(r11, r12, phase)

    def assemble_r(self, rbar: ArrayLike, t: ArrayLike,
                   phase: str = "other") -> ArrayLike:
        """``R = R_bar [I  T]`` (line 10 of Fig. 2b): a triangular
        multiply producing the ``k x n`` factor in pivoted order."""
        return self._trsolve(rbar, t, phase, assemble=True)

    def estimate_error(self, b_new: ArrayLike, q_prev: ArrayLike,
                       phase: str = "other") -> float:
        """Adaptive-scheme error estimate (line 15 of Fig. 3):
        ``eps_tilde = ||B_new - B_new Q_prev^T Q_prev||``.

        Symbolic inputs cannot produce a value and raise
        :class:`repro.errors.SymbolicExecutionError`.
        """
        proj = self._gemm(b_new, q_prev.T, phase)
        fit = self._gemm(proj, q_prev, phase)
        if is_symbolic(fit):
            raise SymbolicExecutionError(
                "error estimates require real data; run the adaptive "
                "scheme with a concrete matrix")
        return self.backend.norm(b_new - fit, ord=2)

    def vstack(self, parts: Sequence[ArrayLike]) -> ArrayLike:
        """Stack sampled blocks (subspace growth in the adaptive loop)."""
        return _vstack(parts)

    def gemm(self, x: ArrayLike, y: ArrayLike,
             phase: str = "other") -> ArrayLike:
        """General timed product ``X Y`` for post-processing steps that
        have no dedicated kernel (e.g. the randomized-SVD Stage-B
        factor assembly)."""
        return self._gemm(x, y, phase)

    def svd_small(self, r: ArrayLike, phase: str = "other"
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense SVD of a small factor (the ``l x l`` tail of the
        randomized SVD).  Value-dependent, so symbolic inputs raise
        :class:`repro.errors.SymbolicExecutionError`."""
        m, n = shape_of(r)
        self._t_svd(m, n, phase)
        if is_symbolic(r):
            raise SymbolicExecutionError(
                "the small SVD is value-dependent; run with a concrete "
                "matrix")
        return self.backend.svd(np.asarray(r), full_matrices=False)

    def row_norms(self, x: ArrayLike,
                  phase: str = "orth_iter") -> np.ndarray:
        """Per-row 2-norms (the adaptive scheme's DGKS degeneracy
        guard).  Value-dependent, so symbolic inputs raise
        :class:`repro.errors.SymbolicExecutionError`."""
        rows, cols = shape_of(x)
        self._t_rownorms(rows, cols, phase)
        if is_symbolic(x):
            raise SymbolicExecutionError(
                "row norms are value-dependent; run with a concrete "
                "matrix")
        return self.backend.row_norms(np.asarray(x))


class GPUExecutor(NumpyExecutor):
    """Single simulated GPU: NumPy math + modeled kernel time."""

    supports_symbolic = True

    def __init__(self, spec: GPUSpec = KEPLER_K40C,
                 seed: Optional[int] = None,
                 device: Optional[SimulatedGPU] = None,
                 backend=None):
        super().__init__(seed=seed, backend=backend)
        self.device = device if device is not None else SimulatedGPU(spec)
        self.kernels = self.device.kernels

    @property
    def seconds(self) -> float:
        return self.device.elapsed

    @property
    def timeline(self) -> TimeLine:
        return self.device.timeline

    def reset_clock(self) -> None:
        self.device.reset()

    def attach_recorder(self, recorder) -> None:
        self.device.attach_recorder(recorder)

    def bind(self, a: ArrayLike) -> None:
        """Account the input matrix in device memory (the paper's
        matrices are device-resident).  A matrix exceeding the K40c's
        12 GB raises :class:`repro.errors.OutOfDeviceMemoryError` —
        the same wall a real run would hit."""
        self.device.memory.reset()
        m, n = shape_of(a)
        self.device.memory.allocate(8 * m * n)

    # -- timing hooks -----------------------------------------------------
    def _charge(self, phase: str, seconds: float, label: str,
                flops: float = 0.0, bytes_moved: float = 0.0) -> None:
        """Where every hook below lands its kernel: this device.  The
        multi-GPU executor places it on device 0 instead."""
        self.device.charge(phase, seconds, label=label, flops=flops,
                           bytes_moved=bytes_moved)

    def _gemm_efficiency(self, phase: str) -> float:
        """Iteration GEMMs (TN/NT shapes) run at the calibrated bonus."""
        return (self.device.spec.iter_gemm_efficiency
                if phase == "gemm_iter" else 1.0)

    def _t_gemm(self, m: int, n: int, k: int, phase: str,
                split: Optional[str] = None,
                reads: Sequence[str] = ()) -> None:
        secs = self.kernels.gemm_seconds(
            m, n, k, efficiency=self._gemm_efficiency(phase))
        flops = gemm_flops(m, n, k)
        self._charge(phase, secs, label=f"gemm {m}x{n}x{k}",
                           flops=flops,
                           bytes_moved=_words_bytes(flops, m * k, k * n,
                                                    m * n))

    def _t_prng(self, count: int) -> None:
        self._charge("prng", self.kernels.curand_seconds(count),
                           label=f"curand {count}", flops=float(count),
                           bytes_moved=8.0 * count)

    def _t_fft(self, m: int, n: int, axis: str) -> None:
        padded = self.kernels._pad_pow2(m if axis == "row" else n)
        flops = 5.0 * padded * np.log2(max(2, padded)) \
            * (n if axis == "row" else m)
        self._charge("sampling",
                           self.kernels.fft_sampling_seconds(m, n, axis),
                           label=f"fft {m}x{n} {axis}", flops=flops,
                           bytes_moved=_words_bytes(flops, m * n))

    def _t_orth(self, rows: int, cols: int, scheme: str, reorth: bool,
                phase: str) -> None:
        k = self.kernels
        if scheme in ("cholqr", "cholqr2", "mixed_cholqr"):
            if scheme == "mixed_cholqr":
                # Always two passes (fast Gram + corrective double
                # pass); the fast precision halves the first pass.
                secs = k.cholqr_seconds(rows, cols, reorth=True) * 0.75
            else:
                secs = k.cholqr_seconds(rows, cols, reorth=reorth)
        elif scheme == "householder":
            secs = k.hhqr_seconds(rows, cols)
        elif scheme == "cgs":
            secs = k.cgs_seconds(rows, cols)
        elif scheme == "mgs":
            secs = k.mgs_seconds(rows, cols)
        elif scheme == "tsqr":
            # TSQR streams like CholQR but re-factors R blocks up the
            # tree: model as CholQR plus a log-depth latency term.
            long = max(rows, cols)
            short = min(rows, cols)
            depth = max(1, int(np.log2(max(2, long // max(1, 4 * short)))))
            secs = (k.cholqr_seconds(rows, cols, reorth=False) * 1.5
                    + depth * 4 * self.device.spec.kernel_launch_s)
        else:
            raise ConfigurationError(f"no timing model for {scheme!r}")
        passes = 2 if reorth else 1
        flops = qr_flops(max(rows, cols), min(rows, cols)) * passes
        self._charge(phase, secs, label=f"{scheme} {rows}x{cols}",
                           flops=flops,
                           bytes_moved=_words_bytes(flops,
                                                    passes * rows * cols))

    def _t_block_orth(self, prev: int, new: int, length: int,
                      reorth: bool, phase: str) -> None:
        secs = self.kernels.block_orth_seconds(prev, new, length, reorth)
        flops = 4.0 * prev * new * length * (2 if reorth else 1)
        self._charge(phase, secs,
                           label=f"borth {prev}+{new}x{length}",
                           flops=flops,
                           bytes_moved=_words_bytes(flops,
                                                    (prev + new) * length))

    def _t_qrcp(self, m: int, n: int, k: int) -> None:
        flops = qp3_flops(m, n, k)
        self._charge("qrcp", self.kernels.qp3_seconds(m, n, k),
                           label=f"qp3 {m}x{n} k={k}", flops=flops,
                           # QP3 is BLAS-2 bound: every update sweeps
                           # the trailing matrix through slow memory.
                           bytes_moved=8.0 * (flops / 2.0 + m * n))

    def _t_trsolve(self, rows: int, cols: int, phase: str) -> None:
        flops = gemm_flops(rows, cols, rows) / 2.0
        self._charge(phase, self.kernels.trsm_seconds(rows, cols),
                           label=f"trsm {rows}x{cols}", flops=flops,
                           bytes_moved=_words_bytes(flops, rows * cols))

    def _t_copy(self, nbytes: int, phase: str) -> None:
        # Device-local gather at memory bandwidth (read + write).
        secs = (2 * nbytes / (self.device.spec.mem_bw_gbs * 1e9)
                + self.device.spec.kernel_launch_s)
        self._charge(phase, secs, label=f"copy {nbytes}B",
                           bytes_moved=2.0 * nbytes)

    def _t_svd(self, m: int, n: int, phase: str) -> None:
        small = min(m, n)
        flops = 14.0 * m * n * small  # dense one-sided Jacobi/gesvd class
        self._charge(phase, self.kernels.svd_small_seconds(m, n),
                           label=f"gesvd {m}x{n}", flops=flops,
                           bytes_moved=_words_bytes(flops, m * n))

    def _t_rownorms(self, rows: int, cols: int, phase: str) -> None:
        flops = 2.0 * rows * cols
        self._charge(phase,
                           self.kernels.row_norms_seconds(rows, cols),
                           label=f"rownorms {rows}x{cols}", flops=flops,
                           bytes_moved=8.0 * rows * cols)
