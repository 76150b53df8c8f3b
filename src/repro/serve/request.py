"""Request and result types of the serving layer.

A :class:`DecompRequest` names *what* to decompose (a gallery
:class:`MatrixRef`), *how* (algorithm, ``k``/``tol``, sampler, power
iterations, backend), and *under which service contract* (deadline).
Results come back as versioned :class:`ResultArtifact` documents
carrying factor metadata, modeled and wall-clock timings, span ids,
and the batch the request rode in on.

Requests are frozen dataclasses validated at construction
(:class:`repro.errors.InvalidRequestError`), so the admission
controller never sees a structurally broken job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..config import (SAMPLER_KINDS, AdaptiveConfig, SamplingConfig,
                      sample_infeasibility)
from ..errors import ConfigurationError, InvalidRequestError
from ..matrices.registry import get_matrix, list_matrices

__all__ = ["ALGORITHMS", "RESULT_SCHEMA_VERSION", "MatrixRef",
           "DecompRequest", "ResultArtifact", "next_request_id"]

#: Algorithms a request may name.  ``fixed_rank`` is the Figure 2b
#: pipeline (and the only *batchable* one — its sampling step is a
#: pure GEMM); ``adaptive`` is the fixed-accuracy scheme of Figure 3;
#: ``cholqr`` is the plain CholQR2 tall-skinny factorization path.
ALGORITHMS = ("fixed_rank", "adaptive", "cholqr")

#: Version of the :class:`ResultArtifact` document layout.
RESULT_SCHEMA_VERSION = 1

_REQUEST_COUNTER = itertools.count(1)


def next_request_id(prefix: str = "req") -> str:
    """Process-unique monotonically increasing request id."""
    return f"{prefix}-{next(_REQUEST_COUNTER):06d}"


def _invalid(cond: bool, msg: str, *args) -> None:
    """Raise :class:`InvalidRequestError` unless ``cond``.  ``msg`` is a
    :meth:`str.format` template filled from ``args`` only when the
    check fails, so a passing check formats nothing."""
    if not cond:
        raise InvalidRequestError(msg.format(*args))


@dataclass(frozen=True)
class MatrixRef:
    """Reference to a registered gallery matrix at a concrete shape.

    The triple ``(name, m, n, seed)`` fully determines the instance
    (the gallery generators are seeded), so two requests with equal
    refs operate on the *same* matrix — the precondition for sharing a
    batched sketch GEMM.  ``materialize`` resolves through the
    registry's LRU, so a batch pays one generation for all its riders,
    and every request shares that one read-only array instead of
    copying it.
    """

    name: str
    m: int
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        names = list_matrices()
        _invalid(self.name in names,
                 "unknown gallery matrix {!r}; available: {}", self.name,
                 names)
        _invalid(self.m >= 1 and self.n >= 1,
                 "matrix shape must be positive, got {} x {}", self.m,
                 self.n)

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (self.name, self.m, self.n, self.seed)

    def materialize(self) -> np.ndarray:
        """The matrix as a read-only array (a view of the registry's
        LRU entry, so no copy is made); a write raises ``ValueError``."""
        return get_matrix(self.name, m=self.m, n=self.n, seed=self.seed,
                          readonly=True)


@dataclass(frozen=True)
class DecompRequest:
    """One client decomposition request.

    Parameters
    ----------
    matrix:
        The input matrix reference.
    algorithm:
        One of :data:`ALGORITHMS`.
    rank, oversampling, power_iterations, sampler:
        Fixed-rank pipeline parameters (see
        :class:`repro.config.SamplingConfig`).  ``rank`` is required
        for ``fixed_rank``.
    tolerance:
        Target accuracy for the ``adaptive`` algorithm (required
        there, ignored elsewhere).
    seed:
        PRNG seed for the sampling operator; every request carries its
        own seed so a coalesced batch draws exactly the Omega blocks
        the solo runs would.
    backend:
        Compute-backend registry name (``None`` = session default).
    deadline_s:
        Service deadline in seconds from submission; expiry anywhere
        in the pipeline (queued, batch window, pre-dispatch) raises
        :class:`repro.errors.DeadlineExceededError`.  ``None`` defers
        to the service default.
    request_id:
        Stable identifier; autogenerated when omitted.  Tags the
        request's spans (``SpanRecorder.labelled``) and all artifacts.
    """

    matrix: MatrixRef
    algorithm: str = "fixed_rank"
    rank: Optional[int] = None
    oversampling: int = 10
    power_iterations: int = 0
    sampler: str = "gaussian"
    tolerance: Optional[float] = None
    seed: int = 0
    backend: Optional[str] = None
    deadline_s: Optional[float] = None
    request_id: str = field(default_factory=next_request_id)

    def __post_init__(self) -> None:
        _invalid(self.algorithm in ALGORITHMS,
                 "algorithm must be one of {}, got {!r}", ALGORITHMS,
                 self.algorithm)
        _invalid(self.sampler in SAMPLER_KINDS,
                 "sampler must be one of {}, got {!r}", SAMPLER_KINDS,
                 self.sampler)
        _invalid(self.oversampling >= 0,
                 "oversampling must be >= 0, got {}", self.oversampling)
        _invalid(self.power_iterations >= 0,
                 "power_iterations must be >= 0, got {}",
                 self.power_iterations)
        if self.algorithm == "fixed_rank":
            _invalid(self.rank is not None and self.rank >= 1,
                     "fixed_rank requests need rank >= 1")
            problem = sample_infeasibility(
                self.rank, self.sample_size, self.matrix.m, self.matrix.n,
                within_n=self.power_iterations >= 1)
            if problem is not None:
                raise InvalidRequestError(problem)
        elif self.algorithm == "adaptive":
            _invalid(self.tolerance is not None and self.tolerance > 0,
                     "adaptive requests need tolerance > 0")
        else:  # cholqr
            _invalid(self.matrix.m >= self.matrix.n,
                     "cholqr path factors the full matrix and needs "
                     "m >= n, got {} x {}", self.matrix.m, self.matrix.n)
        if self.deadline_s is not None:
            _invalid(self.deadline_s > 0,
                     "deadline_s must be positive, got {}", self.deadline_s)
        _invalid(bool(self.request_id),
                 "request_id must be a non-empty string")

    @property
    def sample_size(self) -> int:
        """Total sampling dimension ``l = k + p`` (fixed-rank only)."""
        if self.rank is None:
            raise ConfigurationError(
                f"request {self.request_id} has no rank")
        return self.rank + self.oversampling

    @property
    def batch_key(self) -> Optional[Tuple]:
        """Coalescing compatibility class, ``None`` when unbatchable.

        Two requests may share one stacked sketch GEMM iff they run
        the fixed-rank pipeline with the pruned-Gaussian sampler on
        the *same matrix instance* and the same backend: the batched
        product ``vstack(Omega_i) A`` then factors row-block-wise into
        exactly the solo products.  The adaptive scheme interleaves
        draws with error estimates, the FFT sampler transforms ``A``
        itself, and the CholQR path has no sampling step — none can
        ride a shared GEMM.
        """
        if self.algorithm != "fixed_rank" or self.sampler != "gaussian":
            return None
        return (self.matrix.key, self.backend or "")

    def sampling_config(self) -> SamplingConfig:
        """The :class:`repro.config.SamplingConfig` of a fixed-rank run."""
        return SamplingConfig(rank=int(self.rank),
                              oversampling=self.oversampling,
                              power_iterations=self.power_iterations,
                              sampler=self.sampler, seed=self.seed,
                              backend=self.backend)

    def adaptive_config(self) -> AdaptiveConfig:
        """The :class:`repro.config.AdaptiveConfig` of an adaptive run."""
        return AdaptiveConfig(tolerance=float(self.tolerance),
                              power_iterations=self.power_iterations,
                              seed=self.seed, backend=self.backend)


@dataclass
class ResultArtifact:
    """Versioned record of one completed decomposition request.

    ``factors`` holds metadata only (shapes, achieved subspace size);
    the in-memory factor payload rides on :attr:`payload` for
    in-process callers and is deliberately excluded from
    :meth:`to_dict` so artifacts stay JSON-small.
    """

    request_id: str
    algorithm: str
    status: str = "ok"
    factors: Dict[str, Any] = field(default_factory=dict)
    #: Modeled device seconds of this request's pipeline (its own
    #: executor clock plus its share of any coalesced batch kernel).
    modeled_seconds: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Real seconds inside the worker running this request's math.
    wall_run_s: float = 0.0
    #: Submission-to-completion seconds as the service measured them.
    service_latency_s: float = 0.0
    queue_wait_s: float = 0.0
    #: Span ids: the run-span name plus every label on this request's
    #: spans (the request id, and batch-mates on shared kernels).
    spans: Dict[str, Any] = field(default_factory=dict)
    #: Batch ride: {"batch_id", "size", "coalesced"}.
    batch: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    version: int = RESULT_SCHEMA_VERSION
    #: In-process factor payload (LowRankFactors / AdaptiveResult /
    #: (Q, R) tuple); never serialized.
    payload: Any = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe document (excludes the in-memory payload)."""
        return {
            "version": self.version,
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "status": self.status,
            "factors": dict(self.factors),
            "timings": {
                "modeled_seconds": self.modeled_seconds,
                "breakdown": dict(self.breakdown),
                "wall_run_s": self.wall_run_s,
                "service_latency_s": self.service_latency_s,
                "queue_wait_s": self.queue_wait_s,
            },
            "spans": dict(self.spans),
            "batch": dict(self.batch),
            "backend": self.backend,
        }
