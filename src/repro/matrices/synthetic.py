"""Synthetic test matrices with prescribed singular-value spectra.

The paper's first two test matrices (Table 1) are built as
``A = X * Sigma * Y`` with randomly generated orthogonal ``X`` and ``Y``
and a diagonal ``Sigma`` holding either a power-law or an exponential
spectrum.  We reproduce that construction exactly, seeded.

The factors are generated with the Haar measure (QR of a Gaussian
matrix with the sign-fixed R diagonal), so the singular vectors are
uniformly distributed orthonormal frames.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ShapeError
from ..backends import hostmath

__all__ = [
    "random_orthonormal",
    "power_spectrum",
    "exponent_spectrum",
    "spectrum_matrix",
    "power_matrix",
    "exponent_matrix",
]

RngLike = Union[None, int, np.random.Generator]

#: Gaussian entries drawn per generator call in
#: :func:`random_orthonormal` (2 MiB of float64).
_DRAW_BLOCK = 1 << 18


def _as_generator(seed: RngLike) -> np.random.Generator:
    """Normalize ``None`` / int / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthonormal(m: int, n: int, seed: RngLike = None,
                       dtype=np.float64) -> np.ndarray:
    """Return an ``m x n`` matrix with orthonormal columns (``n <= m``).

    Drawn from the Haar distribution on the Stiefel manifold: QR of an
    i.i.d. standard Gaussian matrix, with the non-uniqueness removed by
    forcing the diagonal of ``R`` to be positive (Mezzadri's recipe).

    The draw is written, factored and sign-fixed in one Fortran-ordered
    float64 buffer (:func:`repro.backends.hostmath.qr_in_place`), so
    generation peaks at about twice the frame's bytes where
    ``numpy.linalg.qr`` held about five.  The result is what
    ``numpy.linalg.qr`` gave: a C-ordered array of ``dtype``, a
    ``float32`` frame being factored in float64 and cast down.

    Parameters
    ----------
    m, n:
        Shape of the frame; ``n`` must not exceed ``m``.
    seed:
        ``None``, an integer seed, or a ``numpy.random.Generator``.
    dtype:
        Floating dtype of the result.
    """
    if n > m:
        raise ShapeError(f"need n <= m for an orthonormal frame, got "
                         f"({m}, {n})")
    rng = _as_generator(seed)
    # Row blocks of the draw (the same stream as one (m, n) draw) go
    # straight into the Fortran-ordered buffer that geqrf/orgqr factor:
    # same bits and peak as a whole draw copied to Fortran order, but
    # faster, as each transposed block fits in cache.
    q = np.empty((m, n), dtype=np.float64, order="F")
    rows = max(1, _DRAW_BLOCK // max(n, 1))
    for i in range(0, m, rows):
        q[i:i + rows] = rng.standard_normal(
            (min(rows, m - i), n)).astype(dtype, copy=False)
    q, r = hostmath.qr_in_place(q)
    # Fix the sign ambiguity so the distribution is exactly Haar.
    d = np.sign(np.diag(r).astype(dtype))
    d[d == 0] = 1.0
    q *= d
    return np.ascontiguousarray(q, dtype=dtype)


def power_spectrum(count: int, exponent: float = 3.0,
                   dtype=np.float64) -> np.ndarray:
    """Power-law spectrum ``sigma_i = (i + 1)^-exponent``, i = 0..count-1.

    With the paper's ``exponent = 3`` and ``count = 500`` this gives
    ``sigma_0 = 1`` and ``sigma_51 ~ 8e-6`` as in Table 1.
    """
    if count < 1:
        raise ShapeError(f"count must be >= 1, got {count}")
    i = np.arange(count, dtype=dtype)
    return (i + 1.0) ** (-float(exponent))


def exponent_spectrum(count: int, decade: float = 10.0,
                      dtype=np.float64) -> np.ndarray:
    """Exponential spectrum ``sigma_i = 10^(-i/decade)``.

    With the paper's ``decade = 10`` this loses one order of magnitude
    every 10 singular values; ``sigma_51 ~ 1.3e-5`` matches Table 1.
    """
    if count < 1:
        raise ShapeError(f"count must be >= 1, got {count}")
    i = np.arange(count, dtype=dtype)
    return 10.0 ** (-i / float(decade))


def spectrum_matrix(m: int, n: int, spectrum: np.ndarray,
                    seed: RngLike = None,
                    dtype=np.float64,
                    return_factors: bool = False):
    """Build ``A = X @ diag(spectrum) @ Y^T`` with Haar-random factors.

    Parameters
    ----------
    m, n:
        Output shape; ``len(spectrum)`` must not exceed ``min(m, n)``.
    spectrum:
        Desired singular values (non-negative, any order; they become
        the exact singular values of ``A``).
    seed:
        PRNG seed shared by both factors (they are drawn sequentially
        from one generator, so they are independent).
    return_factors:
        When true, also return ``(X, Y)`` so tests can verify the
        construction.

    Returns
    -------
    ``A`` or ``(A, X, Y)`` depending on ``return_factors``.
    """
    spectrum = np.asarray(spectrum, dtype=dtype)
    if spectrum.ndim != 1:
        raise ShapeError("spectrum must be one-dimensional")
    r = spectrum.shape[0]
    if r > min(m, n):
        raise ShapeError(f"spectrum length {r} exceeds min(m, n) = "
                         f"{min(m, n)}")
    if np.any(spectrum < 0):
        raise ShapeError("singular values must be non-negative")
    rng = _as_generator(seed)
    x = random_orthonormal(m, r, rng, dtype=dtype)
    y = random_orthonormal(n, r, rng, dtype=dtype)
    if return_factors:
        return (x * spectrum) @ y.T, x, y
    x *= spectrum
    return x @ y.T


def power_matrix(m: int = 500_000, n: int = 500, seed: RngLike = None,
                 exponent: float = 3.0, dtype=np.float64) -> np.ndarray:
    """The paper's ``power`` matrix: ``sigma_i = (i+1)^-3`` (Table 1).

    Defaults to the paper's full 500 000 x 500 size; pass smaller
    ``m``/``n`` for laptop-scale runs (the spectrum, and therefore the
    approximation-error behaviour, is unchanged).
    """
    return spectrum_matrix(m, n, power_spectrum(min(m, n), exponent, dtype),
                           seed=seed, dtype=dtype)


def exponent_matrix(m: int = 500_000, n: int = 500, seed: RngLike = None,
                    decade: float = 10.0, dtype=np.float64) -> np.ndarray:
    """The paper's ``exponent`` matrix: ``sigma_i = 10^(-i/10)`` (Table 1)."""
    return spectrum_matrix(m, n, exponent_spectrum(min(m, n), decade, dtype),
                           seed=seed, dtype=dtype)
