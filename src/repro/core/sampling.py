"""Step 1 sampling operators: pruned Gaussian and full FFT (Section 4).

The sampling step ``B = Omega A`` conceptually factors as
``B = S Pi A`` — an ``m x m`` projection ``Pi`` followed by a random
row selection ``S``.  The *pruned* schemes never form the projected
``m x n`` matrix:

- **Pruned Gaussian** (the paper's focus): the selected rows of a
  Gaussian ``Pi`` are themselves Gaussian, so generate the ``l x m``
  ``Omega`` directly with the PRNG and apply one GEMM — ``O(l m n)``
  flops instead of ``O(m^2 n)``.
- **Full FFT**: transform ``A`` along the sampled dimension (padded to
  a power of two, as cuFFT prefers) and keep ``l`` random rows —
  ``O(m n log m)`` flops.  (cuFFT offers no pruned FFT, and neither do
  we: the paper makes the same restriction.)

:func:`full_gaussian_sample` exists for completeness/testing of the
full-vs-pruned cost claim; it is never the fast path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..analysis.annotations import allow_untimed_math
from ..errors import ConfigurationError, ShapeError
from ..gpu.device import ArrayLike, NumpyExecutor, is_symbolic, shape_of
from ..qr.utils import ensure_all_finite

__all__ = ["sample", "full_gaussian_sample"]


def sample(ex: NumpyExecutor, a: ArrayLike, l: int,
           kind: str = "gaussian", check_finite: bool = False) -> ArrayLike:
    """Draw the ``l x n`` sampled matrix ``B`` from ``A`` (Step 1).

    Parameters
    ----------
    ex:
        The executor carrying the PRNG and the timing model.
    a:
        The ``m x n`` input (real or symbolic).
    l:
        Total sampling dimension ``k + p``.
    kind:
        ``"gaussian"`` (pruned) or ``"fft"`` (full, row sampling).
    check_finite:
        Raise :class:`repro.errors.ShapeError` when ``A`` has a NaN or
        infinite entry.  The FFT sampler scans ``A`` before the
        transform.  The Gaussian sampler lets ``B = Omega A`` witness
        ``A`` and scans ``A`` only when ``B`` is not finite.
    """
    m, n = shape_of(a)
    if l < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {l}")
    if l > m:
        raise ShapeError(f"sample size {l} exceeds m = {m}")
    if kind == "gaussian":
        symbolic = is_symbolic(a)
        omega = ex.prng_gaussian(l, m, symbolic=symbolic)
        b = ex.sample_gemm(omega, a)
        if check_finite and not symbolic and not np.isfinite(b).all():
            # Exact, not probabilistic: a NaN or infinity in column j of
            # A makes all of column j of B non-finite whatever Omega is
            # (0 * inf is NaN; a non-finite term keeps a sum
            # non-finite), so a finite B proves a finite A.  A huge but
            # finite A can overflow B too: the scan tells the two apart.
            ensure_all_finite(a, "a")
        return b
    if kind == "fft":
        if check_finite:
            ensure_all_finite(a, "a")
        return ex.fft_sample(a, l, axis="row")
    raise ConfigurationError(f"unknown sampler kind {kind!r}")


@allow_untimed_math("reference full-sampling path kept only to test "
                    "the pruned-vs-full cost claim; never the fast path")
def full_gaussian_sample(a: np.ndarray, l: int,
                         rng: Optional[np.random.Generator] = None
                         ) -> np.ndarray:
    """Reference *full* Gaussian sampling: form the ``m x m`` projected
    matrix ``Pi A``, then select ``l`` rows.

    Statistically identical to the pruned scheme (the selected rows of
    a Gaussian matrix are Gaussian) at ``O(m^2 n)`` cost — used only to
    test that equivalence and to demonstrate the pruning speedup.
    """
    rng = rng or np.random.default_rng()
    m, n = a.shape
    if l > m:
        raise ShapeError(f"sample size {l} exceeds m = {m}")
    pi = rng.standard_normal((m, m))
    projected = pi @ a
    rows = rng.choice(m, size=l, replace=False)
    return projected[rows, :]
