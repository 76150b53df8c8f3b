"""Source annotations recognized by the static analyzer.

These are *markers*: at runtime they do nothing but return the function
unchanged.  The :mod:`repro.analysis` checkers recognize them
syntactically (by decorator name), so they must be applied literally as
``@allow_untimed_math("reason")`` — aliasing the decorator under a
different name hides it from the analyzer.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..errors import ConfigurationError

__all__ = ["allow_untimed_math", "ALLOW_UNTIMED_MATH",
           "residency", "RESIDENCY", "RESIDENCY_VALUES"]

_F = TypeVar("_F", bound=Callable)

#: The decorator name the RS101 checker looks for.
ALLOW_UNTIMED_MATH = "allow_untimed_math"

#: The decorator name the residency dataflow pass (RS115-RS119) looks
#: for.
RESIDENCY = "residency"

#: Legal residency declarations.  ``device`` means "lives in simulated
#: device memory until explicitly downloaded"; ``host`` means "safe for
#: raw host math"; ``either`` means the callable legitimately returns
#: both depending on configuration.
RESIDENCY_VALUES = ("host", "device", "either")


def allow_untimed_math(reason: str) -> Callable[[_F], _F]:
    """Mark a function as legitimately performing raw (untimed) math.

    The RS101 *untimed-math* rule forbids direct ``np.linalg`` / ``@``
    math inside :mod:`repro.core`, where every FLOP must be charged
    through an executor so modeled times stay faithful to the paper's
    rate models.  Host-side *diagnostics* — residual norms, reference
    errors, post-hoc quality measures that are never part of a modeled
    device run — are exempt, but the exemption must be explicit and
    carry a reason::

        @allow_untimed_math("host-side diagnostic, never on the "
                            "modeled device path")
        def residual(self, a):
            ...

    ``reason`` is required (an empty reason raises
    :class:`repro.errors.ConfigurationError` at import time) so
    exemptions stay reviewable.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ConfigurationError(
            "allow_untimed_math requires a non-empty reason string")

    def _mark(func: _F) -> _F:
        func.__untimed_math_reason__ = reason
        return func

    return _mark


def residency(returns=None, params=None):
    """Declare the modeled memory residency of a callable's values.

    The cross-module dataflow pass (rules RS115-RS119, see
    :mod:`repro.analysis.dataflow`) seeds its abstract interpretation at
    these declarations: ``returns`` states where the return value lives
    (``"host"``, ``"device"`` or ``"either"``) and ``params`` maps
    parameter names to the residency the callable *requires* of its
    arguments::

        @residency(returns="device")
        def sample_gemm(self, omega, a):
            ...

    Like :func:`allow_untimed_math` this is a marker: at runtime it only
    records the declaration on the function object.  The analyzer reads
    it syntactically, so apply it literally as ``@residency(...)`` with
    constant strings.  It is also a *promise* the analyzer checks — a
    function declared ``returns="host"`` whose body returns a
    device-resident value is an RS115 finding (this is how a dropped
    ``to_host`` in the multi-GPU executor is caught).
    """
    declared = dict(params or {})
    if returns is not None:
        declared["return"] = returns
    for name, value in declared.items():
        if value not in RESIDENCY_VALUES:
            raise ConfigurationError(
                f"residency({name}={value!r}): expected one of "
                f"{RESIDENCY_VALUES}")

    def _mark(func: _F) -> _F:
        func.__residency__ = {"returns": returns,
                              "params": dict(params or {})}
        return func

    return _mark
