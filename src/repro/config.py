"""Parameter objects for the randomized low-rank approximation algorithms.

The notation follows Figure 1 of the paper:

=========  ==================================================
``m x n``  dimension of the input matrix ``A``
``k``      target rank of the approximation
``p``      oversampling dimension
``l``      total sampling dimension (``l = k + p``)
``q``      number of power iterations
``ng``     number of (simulated) GPUs
=========  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigurationError

__all__ = [
    "ORTH_SCHEMES",
    "SAMPLER_KINDS",
    "SamplingConfig",
    "AdaptiveConfig",
    "QRCPConfig",
    "sample_infeasibility",
]

#: Orthogonalization schemes accepted for the power-iteration QR step.
ORTH_SCHEMES = ("cholqr", "cholqr2", "householder", "cgs", "mgs", "tsqr",
                "mixed_cholqr")

#: Supported sampling-operator kinds for Step 1 of the algorithm.
SAMPLER_KINDS = ("gaussian", "fft")


def _require(cond: bool, msg: str, *args) -> None:
    """Raise :class:`ConfigurationError` unless ``cond``.  ``msg`` is a
    :meth:`str.format` template filled from ``args`` only when the
    check fails, so a passing check formats nothing."""
    if not cond:
        raise ConfigurationError(msg.format(*args))


def _require_backend(name: Optional[str]) -> None:
    """Validate a backend field by registry name (availability is
    checked later, at resolution time — a config naming ``"torch"`` is
    legal to *construct* on a machine without torch)."""
    if name is None:
        return
    from .backends import BACKENDS
    if name != "auto" and name not in BACKENDS:
        raise ConfigurationError(
            f"backend must be 'auto' or one of {tuple(BACKENDS)}, "
            f"got {name!r}")


def sample_infeasibility(k: int, l: int, m: int, n: int,
                         within_n: bool) -> Optional[str]:
    """The feasibility rule for a rank-``k``, ``l``-row sample of an
    ``m x n`` input: why it cannot run, or ``None`` when it can.

    ``k <= min(m, n)`` and ``l <= m`` always.  ``within_n`` adds
    ``l <= n``, which holds whenever the ``l x n`` sample's rows are
    orthonormalized: fixed rank with ``q >= 1``, randomized SVD always,
    and CUR always (its ``A^T`` pass samples ``l`` of the ``n`` rows).
    The drivers and serve admission check this before any kernel runs.
    """
    if k > min(m, n):
        return f"rank {k} exceeds min(m, n) = {min(m, n)}"
    if l > m:
        return f"sample size l = {l} exceeds m = {m}"
    if within_n and l > n:
        return f"sample size l = {l} exceeds n = {n}"
    return None


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters of the fixed-rank randomized sampling algorithm (Fig. 2b).

    Parameters
    ----------
    rank:
        Target rank ``k`` of the approximation.
    oversampling:
        Oversampling parameter ``p``; the sampled subspace has dimension
        ``l = k + p``.  The paper uses ``p = 10`` throughout.
    power_iterations:
        Number ``q`` of power iterations applied to the sampled matrix.
        ``q = 0`` (no iteration) already matches QP3's error order on
        the paper's test matrices; larger ``q`` sharpens the error bound
        to ``c(p, Omega)^(1/(2q+1)) * sigma_{k+1}``.
    sampler:
        ``"gaussian"`` for pruned Gaussian sampling (the paper's focus)
        or ``"fft"`` for subsampled-FFT sampling.
    orth:
        Orthogonalization scheme used inside the power iteration; the
        paper uses CholQR with one full reorthogonalization
        (``"cholqr2"``).
    reorthogonalize:
        Apply one full reorthogonalization pass after each
        orthogonalization (the paper's stabilization; implied by
        ``orth="cholqr2"``).
    seed:
        Seed for the Gaussian / FFT row-selection PRNG.  ``None`` draws
        fresh entropy.
    backend:
        Compute-backend registry name (``"simulated"``, ``"numpy"``,
        ``"torch"``, ``"cupy"``, or ``"auto"``) the pipeline's math
        should run on; ``None`` defers to ``REPRO_BACKEND`` / the
        session default.  See :mod:`repro.backends`.
    """

    rank: int
    oversampling: int = 10
    power_iterations: int = 0
    sampler: str = "gaussian"
    orth: str = "cholqr2"
    reorthogonalize: bool = True
    seed: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.rank >= 1, "rank must be >= 1, got {}", self.rank)
        _require(self.oversampling >= 0,
                 "oversampling must be >= 0, got {}", self.oversampling)
        _require(self.power_iterations >= 0,
                 "power_iterations must be >= 0, got {}",
                 self.power_iterations)
        _require(self.sampler in SAMPLER_KINDS,
                 "sampler must be one of {}, got {!r}", SAMPLER_KINDS,
                 self.sampler)
        _require(self.orth in ORTH_SCHEMES,
                 "orth must be one of {}, got {!r}", ORTH_SCHEMES, self.orth)
        _require_backend(self.backend)

    @property
    def sample_size(self) -> int:
        """Total sampling dimension ``l = k + p``."""
        return self.rank + self.oversampling

    def with_rank(self, rank: int) -> "SamplingConfig":
        """Return a copy of this config with a different target rank."""
        return replace(self, rank=rank)

    def validate_for(self, m: int, n: int,
                     within_n: Optional[bool] = None) -> None:
        """Check that this configuration is feasible for an ``m x n``
        input (:func:`sample_infeasibility`).  ``within_n`` defaults to
        the fixed-rank driver's case, ``q >= 1``."""
        if within_n is None:
            within_n = self.power_iterations >= 1
        problem = sample_infeasibility(self.rank, self.sample_size, m, n,
                                       within_n)
        if problem is not None:
            raise ConfigurationError(problem)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the adaptive-``l`` fixed-accuracy scheme (Fig. 3).

    The scheme grows the sampled subspace by ``l_inc`` basis vectors per
    step until the probabilistic error estimate ``eps_tilde`` drops
    below ``tolerance``.

    Parameters
    ----------
    tolerance:
        Target accuracy ``eps`` on ``||A - A B^T B||``.
    l_init:
        Initial subspace size (the paper starts at 8).
    l_inc:
        Static subspace increment per adaptive step.
    step_rule:
        ``"static"`` keeps ``l_inc`` fixed (``f(l, inc) = inc``);
        ``"interpolate"`` adjusts the next increment by linear
        interpolation of the last two error estimates (Section 10).
    power_iterations:
        ``q``, as for :class:`SamplingConfig`.
    max_subspace:
        Hard cap on the subspace dimension; exceeding it raises
        :class:`repro.errors.ConvergenceError`.
    orth, reorthogonalize, seed, backend:
        As for :class:`SamplingConfig`.
    """

    tolerance: float
    l_init: int = 8
    l_inc: int = 8
    step_rule: str = "static"
    power_iterations: int = 0
    max_subspace: Optional[int] = None
    orth: str = "cholqr2"
    reorthogonalize: bool = True
    seed: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.tolerance > 0.0,
                 "tolerance must be positive, got {}", self.tolerance)
        _require(self.l_init >= 1, "l_init must be >= 1, got {}", self.l_init)
        _require(self.l_inc >= 1, "l_inc must be >= 1, got {}", self.l_inc)
        _require(self.step_rule in ("static", "interpolate"),
                 "step_rule must be 'static' or 'interpolate', got {!r}",
                 self.step_rule)
        _require(self.power_iterations >= 0,
                 "power_iterations must be >= 0, got {}",
                 self.power_iterations)
        _require(self.orth in ORTH_SCHEMES,
                 "orth must be one of {}, got {!r}", ORTH_SCHEMES, self.orth)
        if self.max_subspace is not None:
            _require(self.max_subspace >= self.l_init,
                     "max_subspace must be >= l_init")
        _require_backend(self.backend)


@dataclass(frozen=True)
class QRCPConfig:
    """Parameters of the blocked QP3 factorization (Section 2).

    Parameters
    ----------
    block_size:
        Panel width ``nb`` of the blocked algorithm.  LAPACK's dgeqp3
        default is 32; larger panels trade pivot freshness for BLAS-3
        update volume.
    truncate:
        Stop after this many columns (the truncated QP3 of the paper);
        ``None`` factors all columns.
    norm_recompute_tol:
        Downdated column norms whose square falls below this multiple of
        the running round-off estimate are recomputed from scratch
        (the Quintana-Orti/Sun/Bischof safeguard).
    """

    block_size: int = 32
    truncate: Optional[int] = None
    norm_recompute_tol: float = 1e-1

    def __post_init__(self) -> None:
        _require(self.block_size >= 1,
                 "block_size must be >= 1, got {}", self.block_size)
        if self.truncate is not None:
            _require(self.truncate >= 1,
                     "truncate must be >= 1, got {}", self.truncate)
        _require(0.0 < self.norm_recompute_tol <= 1.0,
                 "norm_recompute_tol must be in (0, 1]")
