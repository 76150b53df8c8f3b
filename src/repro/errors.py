"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still being able to discriminate failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "NotOrthogonalError",
    "CholeskyBreakdownError",
    "RankDeficientError",
    "NonFiniteResultError",
    "ConvergenceError",
    "DeviceError",
    "OutOfDeviceMemoryError",
    "SymbolicExecutionError",
    "ConfigurationError",
    "StaticAnalysisError",
    "RaceError",
    "ServeError",
    "AdmissionError",
    "QueueFullError",
    "ServiceClosedError",
    "InvalidRequestError",
    "DeadlineExceededError",
    "RequestCancelledError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible or unsupported shape."""


class NotOrthogonalError(ReproError, ArithmeticError):
    """A factor expected to be orthonormal failed an orthogonality check."""


class CholeskyBreakdownError(ReproError, ArithmeticError):
    """Cholesky factorization of a Gram matrix failed.

    Raised by :func:`repro.qr.cholqr.cholqr` when the Gram matrix is not
    numerically positive definite.  Callers that want robustness should
    use ``cholqr(..., fallback="householder")`` or the shifted retry.
    """


class RankDeficientError(ReproError, ArithmeticError):
    """The sampled matrix has numerical rank below the requested ``k``.

    Raised when the triangular solve with Step 2's leading ``k x k``
    block ``R11`` meets an exact zero on its diagonal: the
    column-pivoted QR has revealed rank ``rank < k``.  ``rank`` is the
    diagonal index where the solve broke; ask for at most that many
    columns.
    """

    def __init__(self, message: str, rank=None):
        super().__init__(message)
        self.rank = rank


class NonFiniteResultError(ReproError, ArithmeticError):
    """A computed factor has NaN or infinite entries.

    Raised instead of returning it, e.g. for the CUR core
    ``C^+ A R^+`` of a matrix so close to underflow that the
    pseudo-inverses overflow, or for a Gram matrix that overflowed
    because its input was too large to square (``factor="gram"``).
    ``factor`` names the factor.
    """

    def __init__(self, message: str, factor=None):
        super().__init__(message)
        self.factor = factor


class ConvergenceError(ReproError, RuntimeError):
    """An iterative scheme failed to reach its tolerance within budget.

    Carries the history of error estimates so the caller can inspect how
    far the scheme got before giving up.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class DeviceError(ReproError, RuntimeError):
    """Generic failure inside the simulated GPU runtime."""


class OutOfDeviceMemoryError(DeviceError):
    """A simulated device allocation exceeded the configured memory size."""

    def __init__(self, requested: int, available: int, capacity: int):
        super().__init__(
            f"simulated device OOM: requested {requested} B, "
            f"available {available} B of {capacity} B"
        )
        self.requested = requested
        self.available = available
        self.capacity = capacity


class SymbolicExecutionError(DeviceError):
    """A value-producing operation was attempted on a shape-only array.

    Symbolic (dry-run) device arrays carry shapes and dtypes but no
    data; any kernel that must inspect actual values (e.g. a pivot
    search driven by data) raises this when executed symbolically.
    """


class RaceError(DeviceError):
    """The happens-before sanitizer found a data race in a stream schedule.

    Two submissions on different ``(device, stream)`` lanes access the
    same logical buffer, at least one of them writing, and no event
    edge (``deps=``/``after_all``/``barrier()``) orders them.  Carries
    the detected :class:`repro.analysis.races.Race` records so callers
    can render the full report.
    """

    def __init__(self, message: str, races=None):
        super().__init__(message)
        self.races = list(races) if races is not None else []


class ConfigurationError(ReproError, ValueError):
    """A configuration dataclass was constructed with invalid values."""


#: The closed set of admission/lifecycle rejection reasons the serving
#: layer reports (``repro.serve``); every :class:`ServeError` subclass
#: maps onto exactly one of these so service counters, result
#: artifacts, and tests share a single taxonomy.
REJECTION_REASONS = ("queue_full", "closed", "invalid", "deadline",
                     "cancelled")


class ServeError(ReproError, RuntimeError):
    """Base class for failures raised by the :mod:`repro.serve` layer.

    Every subclass carries a ``reason`` drawn from
    :data:`REJECTION_REASONS` plus the ``request_id`` it applies to
    (``None`` for service-wide conditions), so rejections stay
    machine-classifiable all the way into load-test reports.
    """

    reason = "invalid"

    def __init__(self, message: str, request_id=None):
        super().__init__(message)
        self.request_id = request_id


class AdmissionError(ServeError):
    """A request was rejected *at submission time* by the admission
    controller — it never entered the queue."""


class QueueFullError(AdmissionError):
    """Load shedding: the bounded request queue is at capacity."""

    reason = "queue_full"

    def __init__(self, depth: int, capacity: int, request_id=None):
        super().__init__(
            f"serve queue full: depth {depth} at capacity {capacity}",
            request_id=request_id)
        self.depth = depth
        self.capacity = capacity


class ServiceClosedError(AdmissionError):
    """The service is draining or stopped and accepts no new work."""

    reason = "closed"


class InvalidRequestError(AdmissionError, ValueError):
    """The request failed structural validation at admission."""

    reason = "invalid"


class DeadlineExceededError(ServeError):
    """A request's deadline expired while queued, inside the batch
    window, or before its batch was dispatched."""

    reason = "deadline"

    def __init__(self, message: str, request_id=None, waited_s=None):
        super().__init__(message, request_id=request_id)
        self.waited_s = waited_s


class RequestCancelledError(ServeError):
    """The client cancelled the request before a result was produced."""

    reason = "cancelled"


class StaticAnalysisError(ReproError, RuntimeError):
    """The :mod:`repro.analysis` checker could not complete a run.

    Raised for usage/configuration problems — unparseable source, an
    unknown rule id, a malformed baseline file — never for findings
    (findings are data, reported via
    :class:`repro.analysis.AnalysisFinding` and the exit-code
    contract: 0 clean, 1 findings, 2 this error).
    """
