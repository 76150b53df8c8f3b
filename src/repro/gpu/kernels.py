"""Kernel timing models for the simulated K40c.

Each method returns the modeled execution time in seconds of one kernel
invocation on one device.  Rates combine a roofline (compute peak +
shape-dependent effective bandwidth) with anchor curves calibrated
against the paper's measurements; the calibration story is in
``DESIGN.md`` section 5 and :mod:`repro.gpu.specs`.

Flop conventions (used consistently by the models and the benches):

- GEMM ``(m x k)(k x n)``: ``2 m n k``
- GEMV ``(m x n) v``:      ``2 m n``
- QR of ``m x n`` (m >= n): ``2 m n^2`` (the standard count used to
  express Figures 7 and 9 in Gflop/s)
- truncated QP3 to rank k:  ``4 m n k`` total, half BLAS-2
- FFT of length N:          ``5 N log2 N`` per transform, N padded to a
  power of two (Section 4's padding rule)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from .specs import GPUSpec, KEPLER_K40C

__all__ = ["KernelModel", "qr_flops", "gemm_flops", "qp3_flops"]


def gemm_flops(m: int, n: int, k: int) -> float:
    """Flops of an ``(m x k) @ (k x n)`` multiply."""
    return 2.0 * m * n * k


def qr_flops(long_dim: int, short_dim: int) -> float:
    """Standard QR flop count ``2 L s^2`` of an ``L x s`` panel."""
    return 2.0 * long_dim * short_dim * short_dim


def qp3_flops(m: int, n: int, k: int) -> float:
    """Flops of a truncated rank-``k`` QP3 of an ``m x n`` matrix."""
    return max(0.0, 4.0 * m * n * k - 2.0 * (m + n) * k * k
               + 4.0 * (k ** 3) / 3.0)


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


@dataclass
class KernelModel:
    """Seconds-per-call models for every kernel the algorithms use."""

    spec: GPUSpec = KEPLER_K40C

    # ------------------------------------------------------------------
    # Level-3 BLAS
    # ------------------------------------------------------------------
    def gemm_bandwidth_gbs(self, small: float, long: float) -> float:
        """Effective streaming bandwidth of a panel GEMM.

        ``small`` is the panel's short dimension (the sampled subspace
        size ``l``); ``long`` is the streamed dimension (the matrix
        height ``m``).  See :class:`repro.gpu.specs.GPUSpec`.
        """
        s = self.spec
        cap = s.gemm_bw_cap_gbs / (1.0 + long / s.gemm_bw_m_half)
        return cap * small / (small + s.gemm_bw_l_half)

    def gemm_gflops(self, m: int, n: int, k: int) -> float:
        """Achieved Gflop/s of an ``(m x k)(k x n)`` GEMM.

        The short output dimension limits register-tile reuse; the
        streamed (largest) dimension limits cache efficiency.
        """
        small = float(min(m, n, k))
        long = float(max(m, n, k))
        _positive("gemm dims", small)
        beff = self.gemm_bandwidth_gbs(small, long)
        # bytes/flops for a panel product with short side `small` is
        # ~ 4 / small in double precision (stream the long operand).
        inv = 1.0 / self.spec.dgemm_peak_gflops + 4.0 / (small * beff)
        return 1.0 / inv

    def gemm_seconds(self, m: int, n: int, k: int,
                     efficiency: float = 1.0) -> float:
        """Time of an ``(m x k)(k x n)`` GEMM.

        ``efficiency`` scales the achieved rate for transpose variants
        (see :attr:`GPUSpec.iter_gemm_efficiency`); the result is still
        capped at the dgemm peak.
        """
        rate = min(self.gemm_gflops(m, n, k) * efficiency,
                   self.spec.dgemm_peak_gflops)
        return (gemm_flops(m, n, k) / (rate * 1e9)
                + self.spec.kernel_launch_s)

    def syrk_seconds(self, rows: int, cols: int) -> float:
        """Gram-matrix product ``G = B B^T`` of a ``rows x cols`` block
        (``rows`` small).  Half the flops of the equivalent GEMM at the
        same achieved rate."""
        return (gemm_flops(rows, rows, cols) / 2.0
                / (self.gemm_gflops(rows, rows, cols) * 1e9)
                + self.spec.kernel_launch_s)

    def trsm_seconds(self, rows: int, cols: int) -> float:
        """Triangular solve with a ``rows x rows`` triangle applied to
        ``rows x cols``; GEMM-like rate at half efficiency (the
        triangle halves the tile occupancy)."""
        rate = 0.5 * self.gemm_gflops(rows, cols, rows)
        return (gemm_flops(rows, cols, rows) / 2.0 / (rate * 1e9)
                + self.spec.kernel_launch_s)

    def trmm_seconds(self, rows: int, cols: int) -> float:
        """Triangular matrix-matrix multiply, same model as TRSM."""
        return self.trsm_seconds(rows, cols)

    def potrf_seconds(self, n: int) -> float:
        """Cholesky of an ``n x n`` Gram matrix (small; latency-bound)."""
        flops = n ** 3 / 3.0
        return flops / (self.spec.potrf_gflops * 1e9) + 5 * self.spec.kernel_launch_s

    def svd_small_seconds(self, m: int, n: int) -> float:
        """Dense SVD of a small ``m x n`` factor (cuSOLVER gesvd).

        Used for the ``l x l`` triangular factor in the randomized-SVD
        post-processing: one-sided Jacobi/QR iteration costs ~``14
        long short^2`` flops and runs panel-bound, so we rate it on the
        width-calibrated BLAS-2 curve like QP3's panel phase.
        """
        small = float(min(m, n))
        long = float(max(m, n))
        _positive("svd dims", small)
        flops = 14.0 * long * small * small
        rate = self.spec.qp3_blas2_curve(small)
        return flops / (rate * 1e9) + 10 * self.spec.kernel_launch_s

    # ------------------------------------------------------------------
    # Level-1/2 BLAS
    # ------------------------------------------------------------------
    def row_norms_seconds(self, rows: int, cols: int) -> float:
        """Per-row 2-norms of a ``rows x cols`` block (memory-bound
        sweep: read once at device bandwidth)."""
        nbytes = 8.0 * rows * cols
        return nbytes / (self.spec.mem_bw_gbs * 1e9) + self.spec.kernel_launch_s

    def gemv_gflops(self, m: int, n: int) -> float:
        """GEMV rate: bandwidth-bound, capped by the spec's flat rate."""
        bw_bound = self.spec.mem_bw_gbs / 4.0  # 2 flops per 8 bytes
        return min(self.spec.gemv_gflops, bw_bound)

    def axpy_seconds(self, n: int) -> float:
        """Vector update (BLAS-1)."""
        return 2.0 * n / (self.spec.axpy_gflops * 1e9) + self.spec.kernel_launch_s

    # ------------------------------------------------------------------
    # Random numbers & FFT
    # ------------------------------------------------------------------
    def curand_seconds(self, count: int) -> float:
        """Generate ``count`` N(0, 1) doubles with cuRAND."""
        return count / self.spec.curand_gsamples + self.spec.kernel_launch_s

    @staticmethod
    def _pad_pow2(n: int) -> int:
        return 1 << max(1, (int(n) - 1).bit_length())

    def fft_sampling_seconds(self, m: int, n: int, axis: str = "row") -> float:
        """Full FFT sampling of an ``m x n`` matrix (Section 4).

        ``axis="row"``: one length-``m`` transform per column (the
        ``B = S Pi A`` row sampling);  ``axis="col"``: one length-``n``
        transform per row (column sampling, ``B = Omega A^T``).
        The transform length is padded to the next power of two.
        """
        if axis == "row":
            np2 = self._pad_pow2(m)
            flops = 5.0 * np2 * math.log2(np2) * n
            rate = self.spec.fft_row_gflops
        elif axis == "col":
            np2 = self._pad_pow2(n)
            flops = 5.0 * np2 * math.log2(np2) * m
            rate = self.spec.fft_col_gflops
        else:
            raise ConfigurationError(f"axis must be 'row' or 'col', got {axis!r}")
        return flops / (rate * 1e9) + self.spec.kernel_launch_s

    # ------------------------------------------------------------------
    # Composite factorization kernels (anchor-calibrated)
    # ------------------------------------------------------------------
    @staticmethod
    def _orient(m: int, n: int):
        """Return (long, short, tall_skinny?) for an ``m x n`` input."""
        return (m, n, True) if m >= n else (n, m, False)

    def cholqr_seconds(self, m: int, n: int, reorth: bool = False) -> float:
        """CholQR of an ``m x n`` block (either orientation).

        Calibrated to Figure 7 (tall-skinny) / Figure 9 (short-wide)
        effective rates on the ``2 L s^2`` flop count; a full
        reorthogonalization doubles the time (CholQR2).
        """
        long, short, ts = self._orient(m, n)
        curve = self.spec.cholqr_ts_curve if ts else self.spec.cholqr_sw_curve
        # Rescale the width-64 anchor rate for other panel widths using
        # the GEMM saturation factor (wider panels run closer to peak).
        width_factor = self._width_factor(short)
        rate = curve(long) * width_factor
        t = qr_flops(long, short) / (rate * 1e9) + 3 * self.spec.kernel_launch_s
        return 2.0 * t if reorth else t

    #: Half-saturation width of the CholQR rate: the SYRK/TRSM pair is
    #: pure BLAS-3, so its rate keeps climbing well past the width-64
    #: calibration anchors (Figures 7/9) — without this, Step 3 would
    #: dominate the large-l points of Figure 13, which the paper's
    #: near-linear measurements rule out.
    CHOLQR_WIDTH_HALF = 256.0

    def _width_factor(self, short: int) -> float:
        """Saturation of the panel-QR rate in the short dimension,
        normalized to 1 at the anchor width 64."""
        s = self.CHOLQR_WIDTH_HALF
        base = 64.0 / (64.0 + s)
        return (short / (short + s)) / base

    def hhqr_seconds(self, m: int, n: int) -> float:
        """Householder QR of an ``m x n`` block (Figure 7/9 anchors)."""
        long, short, ts = self._orient(m, n)
        curve = self.spec.hhqr_ts_curve if ts else self.spec.hhqr_sw_curve
        rate = curve(long)
        return (qr_flops(long, short) / (rate * 1e9)
                + short * 2 * self.spec.kernel_launch_s)

    def cgs_seconds(self, m: int, n: int) -> float:
        """Classical Gram-Schmidt (BLAS-2) of a tall-skinny block."""
        long, short, _ = self._orient(m, n)
        rate = self.spec.cgs_ts_curve(long)
        return (qr_flops(long, short) / (rate * 1e9)
                + short * 2 * self.spec.kernel_launch_s)

    def mgs_seconds(self, m: int, n: int) -> float:
        """Modified Gram-Schmidt (BLAS-1) of a tall-skinny block.

        The anchor rate already reflects the per-vector launch storm
        of the BLAS-1 formulation, so no extra latency term is added.
        """
        long, short, _ = self._orient(m, n)
        rate = self.spec.mgs_ts_curve(long)
        return qr_flops(long, short) / (rate * 1e9)

    def block_orth_seconds(self, prev: int, new: int, length: int,
                           reorth: bool = True) -> float:
        """Block Gram-Schmidt of ``new`` vectors of length ``length``
        against ``prev`` previous vectors: two GEMMs (``C = Q^T V``,
        ``V -= Q C``), doubled by reorthogonalization."""
        if prev == 0:
            return 0.0
        t = (self.gemm_seconds(prev, new, length)
             + self.gemm_seconds(length, new, prev))
        return 2.0 * t if reorth else t

    def qp3_seconds(self, m: int, n: int, k: Optional[int] = None,
                    block_size: int = 32) -> float:
        """Truncated blocked QP3 of an ``m x n`` matrix to rank ``k``.

        Three cost terms, per the paper's Section 2 discussion:

        - half the flops in BLAS-2 panel work at the width-calibrated
          ``qp3_blas2_curve`` rate (~31 Gflop/s for the wide problems
          of Figures 11-13, collapsing for narrow panels);
        - half the flops in BLAS-3 trailing updates at the panel-GEMM
          rate for the block size;
        - one CPU-GPU synchronization per pivot (the Figure 11
          intercept: ~0.18 ms x k).
        """
        if k is None:
            k = min(m, n)
        k = min(k, m, n)
        if k == 0:
            return 0.0
        flops = qp3_flops(m, n, k)
        blas2_rate = self.spec.qp3_blas2_curve(float(n))
        nb = max(1, min(block_size, k))
        blas3_rate = self.gemm_gflops(max(1, m - k // 2), max(1, n - k // 2), nb)
        t = (0.5 * flops / (blas2_rate * 1e9)
             + 0.5 * flops / (blas3_rate * 1e9)
             + k * self.spec.pivot_sync_s)
        return t

    def caqp3_seconds(self, m: int, n: int, k: Optional[int] = None,
                      block_size: int = 32,
                      sync_levels: int = 1) -> float:
        """Truncated communication-avoiding QP3 (CARRQR, ref [4]).

        Tournament pivoting roughly doubles the BLAS-2 flop volume
        (every trailing column is QRCP'ed locally once per panel plus
        the merge tree) but the local QRCPs stay resident in fast
        memory (modeled at 2x the global BLAS-2 rate) and the *global*
        synchronization count drops from ``k`` per-pivot syncs to
        ``(k / b) * sync_levels`` per-panel tree reductions.  On one
        GPU that trade is roughly a wash; its payoff appears when the
        per-sync cost grows (distributed memory) — exactly the paper's
        Section 11 argument, exercised by the communication-cost
        ablation bench.
        """
        if k is None:
            k = min(m, n)
        k = min(k, m, n)
        if k == 0:
            return 0.0
        b = max(1, min(block_size, k))
        panels = -(-k // b)
        # Tournament per panel: TSQR-reduce every m x 2b column block
        # to its 2b x 2b R factor (4 m b n BLAS-3 flops per panel),
        # then QRCP only the tiny R factors up the tree (latency).
        tournament_flops = 4.0 * m * b * n * panels
        tournament_rate = 0.5 * self.gemm_gflops(2 * b, 2 * b, m)
        import math as _math
        tree_depth = max(1, int(_math.ceil(_math.log2(max(2.0,
                                                          n / (2.0 * b))))))
        tree_latency = panels * tree_depth * 5 * self.spec.kernel_launch_s
        # Panel QR + compact-WY trailing updates: half the QP3 flops,
        # all BLAS-3 (no pivoted panel).
        blas3_rate = self.gemm_gflops(max(1, m - k // 2),
                                      max(1, n - k // 2), b)
        update = 0.5 * qp3_flops(m, n, k) / (blas3_rate * 1e9)
        syncs = panels * sync_levels * self.spec.pivot_sync_s
        return (tournament_flops / (tournament_rate * 1e9)
                + tree_latency + update + syncs)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer_seconds(self, nbytes: int) -> float:
        """Host<->device (or peer) PCIe transfer."""
        return (nbytes / (self.spec.pcie_bw_gbs * 1e9)
                + self.spec.pcie_latency_s)
