"""Computation and communication costs of Figure 5.

Every entry of the paper's cost table is reproduced as a function
returning a :class:`CostModel` pair ``(flops, words)``, where ``words``
counts data moved between the two levels of the local memory hierarchy
with fast-memory size ``M`` (the red-blue pebble-game model [11]).

The leading-order expressions (Figure 5, for one GPU):

===================  ======================  ==========================
step                 #flops                  #words
===================  ======================  ==========================
Sampling (Gaussian)  O(l m n)                O(l m n / sqrt(M))
Sampling (FFT)       O(m n log m)            O(m n log m / log M)
Iter. (mult.)        O(l m n q)              O(l m n q / sqrt(M))
Iter. (orth.)        O(l (m + n)^2 q)*       O(same / sqrt(M))
QRCP (sampled)       O(l^2 n)                O(l^2 n)
QR (selected)        O(k^2 m)                O(k^2 m / sqrt(M))
Total                O(l m n (1 + 2 q))      O(l m n (1+2q) / sqrt(M))
QP3                  O(m n k)                O(m n k)
CAQP3                O(m n (m + n))          O(m n^2 / sqrt(M))
===================  ======================  ==========================

(*) The paper prints the orthogonalization row as ``O((m+n)^2 q)``; the
exact count for CholQR of an ``l x n`` and an ``l x m`` block per
iteration is ``O(l^2 (m + n) q)`` — we expose exact constants, so the
table's order relations (everything dominated by the GEMM term) are
preserved either way.

These closed forms are load-bearing: ``repro-bench analyze
--audit-costs`` (:mod:`repro.analysis.audit`, a tier-1 test and a CI
step) runs the fixed-rank algorithm symbolically at the fig15 point on
1-3 devices and at two reference points, and fails if any audited
phase's charged flops drift more than 5% from these functions (see
``docs/static_analysis.md``).  A deliberate model change must
therefore update executor and closed form together — which is the
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

from ..errors import ConfigurationError

__all__ = [
    "CostModel",
    "gaussian_sampling_cost",
    "fft_sampling_cost",
    "power_iteration_mult_cost",
    "power_iteration_orth_cost",
    "qrcp_sampled_cost",
    "qr_selected_cost",
    "random_sampling_total_cost",
    "qp3_cost",
    "caqp3_cost",
    "multi_gpu_scaling",
]

#: Default fast-memory size used for word counts: the K40c's 1.5 MB L2
#: in float64 elements.
DEFAULT_FAST_MEMORY = 1_572_864 // 8


@dataclass(frozen=True)
class CostModel:
    """A (flops, words) pair; supports addition and scaling."""

    flops: float
    words: float

    def __add__(self, other: "CostModel") -> "CostModel":
        return CostModel(self.flops + other.flops, self.words + other.words)

    def __mul__(self, scalar: float) -> "CostModel":
        return CostModel(self.flops * scalar, self.words * scalar)

    __rmul__ = __mul__

    def intensity(self) -> float:
        """Arithmetic intensity flops/word (infinite for zero words)."""
        return self.flops / self.words if self.words > 0 else float("inf")


def _check(m: int, n: int, **extra: int) -> None:
    if m < 1 or n < 1:
        raise ConfigurationError(f"need m, n >= 1, got ({m}, {n})")
    for name, val in extra.items():
        if val < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {val}")


def gaussian_sampling_cost(m: int, n: int, l: int,
                           fast_memory: int = DEFAULT_FAST_MEMORY
                           ) -> CostModel:
    """Pruned Gaussian sampling ``B = Omega A``: one ``l x m`` by
    ``m x n`` GEMM.

    flops = ``2 l m n``; words = ``2 l m n / sqrt(M)`` + the operands
    themselves (communication-optimal blocked GEMM [11]).
    """
    _check(m, n, l=l)
    flops = 2.0 * l * m * n
    words = flops / sqrt(fast_memory) + m * n + l * m + l * n
    return CostModel(flops, words)


def fft_sampling_cost(m: int, n: int, l: int, pruned: bool = False,
                      fast_memory: int = DEFAULT_FAST_MEMORY) -> CostModel:
    """FFT sampling.

    Full FFT: ``O(m n log2 m)`` flops (5 m log2 m per column is the
    standard real-FFT count), words ``O(m n log m / log M)``.  Pruned
    FFT computes only ``l`` output rows: ``O(m n log2 l)`` flops.
    """
    _check(m, n, l=l)
    mp = 1 << max(1, (m - 1).bit_length())  # power-of-two padding
    logterm = log2(max(2, l)) if pruned else log2(mp)
    flops = 5.0 * mp * logterm * n
    words = flops / log2(fast_memory) + m * n + l * n
    return CostModel(flops, words)


def power_iteration_mult_cost(m: int, n: int, l: int, q: int,
                              fast_memory: int = DEFAULT_FAST_MEMORY
                              ) -> CostModel:
    """The two GEMMs per power iteration: ``C = B A^T`` (l x n by n x m)
    and ``B = C A`` (l x m by m x n) — ``4 l m n`` flops per iteration.
    """
    _check(m, n, l=l, q=q)
    flops = 4.0 * l * m * n * q
    words = flops / sqrt(fast_memory) + (2 * m * n + l * m + l * n) * q
    return CostModel(flops, words)


def power_iteration_orth_cost(m: int, n: int, l: int, q: int,
                              reorth: bool = True,
                              fast_memory: int = DEFAULT_FAST_MEMORY
                              ) -> CostModel:
    """CholQR of the ``l x n`` and ``l x m`` blocks each iteration.

    One CholQR of an ``l x N`` short-wide block costs ``2 l^2 N``
    (Gram + triangular solve) plus ``O(l^3)`` for the Cholesky; the
    paper's full reorthogonalization doubles it.
    """
    _check(m, n, l=l, q=q)
    passes = 2 if reorth else 1
    per_iter = passes * (2.0 * l * l * (m + n) + 2.0 * (l ** 3) / 3.0)
    flops = per_iter * q
    words = flops / sqrt(fast_memory) + (l * (m + n)) * q * passes
    return CostModel(flops, words)


def qrcp_sampled_cost(n: int, l: int, k: int,
                      fast_memory: int = DEFAULT_FAST_MEMORY) -> CostModel:
    """Truncated QP3 of the sampled ``l x n`` matrix (Step 2).

    ``4 l n k`` leading-order flops; communication is NOT reduced by
    blocking (pivoting forces ``O(l n)``-word traffic per panel), hence
    the paper's ``O(n^2)``-class words entry (``l ~ k`` small).
    """
    _check(max(1, l), n, k=k)
    flops = 4.0 * l * n * k - 2.0 * (l + n) * k * k + 4.0 * (k ** 3) / 3.0
    # Same O(#cols * matrix) streaming as the big QP3, on the small B.
    words = 0.5 * l * n * k + l * n
    return CostModel(flops, words)


def qr_selected_cost(m: int, k: int,
                     fast_memory: int = DEFAULT_FAST_MEMORY) -> CostModel:
    """CholQR of the selected tall-skinny ``m x k`` block (Step 3)."""
    _check(m, max(1, k))
    flops = 2.0 * m * k * k + 2.0 * (k ** 3) / 3.0
    words = flops / sqrt(fast_memory) + 2.0 * m * k
    return CostModel(flops, words)


def random_sampling_total_cost(m: int, n: int, l: int, k: int, q: int,
                               sampler: str = "gaussian",
                               reorth: bool = True,
                               fast_memory: int = DEFAULT_FAST_MEMORY
                               ) -> CostModel:
    """Total cost of the fixed-rank algorithm (Figure 2b).

    Leading order ``O(l m n (1 + 2 q))`` flops and
    ``O(l m n (1 + 2 q) / sqrt(M))`` words, as in Figure 5's Total row.
    """
    if sampler == "gaussian":
        sample = gaussian_sampling_cost(m, n, l, fast_memory)
    elif sampler == "fft":
        sample = fft_sampling_cost(m, n, l, fast_memory=fast_memory)
    else:
        raise ConfigurationError(f"unknown sampler {sampler!r}")
    return (sample
            + power_iteration_mult_cost(m, n, l, q, fast_memory)
            + power_iteration_orth_cost(m, n, l, q, reorth, fast_memory)
            + qrcp_sampled_cost(n, l, k, fast_memory)
            + qr_selected_cost(m, k, fast_memory))


def qp3_cost(m: int, n: int, k: int,
             fast_memory: int = DEFAULT_FAST_MEMORY) -> CostModel:
    """Truncated QP3 of the full ``m x n`` matrix.

    ``4 m n k`` leading-order flops (half BLAS-2, half BLAS-3, cf.
    Section 2); words ``O(m n k)``-class because every panel step
    streams the trailing matrix for the norm updates / pivot search.
    """
    _check(m, n, k=k)
    flops = 4.0 * m * n * k - 2.0 * (m + n) * k * k + 4.0 * (k ** 3) / 3.0
    # Figure 5's O(m n k) words: the BLAS-2 half of the work re-streams
    # the trailing matrix once per factored column (intensity O(1)).
    words = 0.5 * m * n * k + m * n
    return CostModel(flops, words)


def caqp3_cost(m: int, n: int,
               fast_memory: int = DEFAULT_FAST_MEMORY) -> CostModel:
    """Communication-avoiding QP3 [4] (full factorization): the paper's
    Figure 5 row ``O(m n (m + n))`` flops, ``O(m n^2 / sqrt(M))`` words.
    """
    _check(m, n)
    flops = float(m) * n * (m + n)
    words = float(m) * n * n / sqrt(fast_memory)
    return CostModel(flops, words)


def multi_gpu_scaling(cost: CostModel, ng: int) -> CostModel:
    """Distribute a cost over ``ng`` GPUs (Section 5's extension):
    ``#flops = O(.../ng)`` and ``#words = O(.../(ng sqrt(M)))`` — the
    GEMM bottleneck is perfectly row-partitioned."""
    if ng < 1:
        raise ConfigurationError(f"ng must be >= 1, got {ng}")
    return CostModel(cost.flops / ng, cost.words / ng)
