"""Source annotation recognized by the static analyzer.

:func:`allow_untimed_math` is a *marker*: at runtime it does nothing
but record its reason on the function.  The :mod:`repro.analysis`
checkers recognize it syntactically (by decorator name), so it must be
applied literally as ``@allow_untimed_math("reason")`` — aliasing the
decorator under a different name hides it from the analyzer.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..errors import ConfigurationError

__all__ = ["allow_untimed_math", "ALLOW_UNTIMED_MATH"]

_F = TypeVar("_F", bound=Callable)

#: The decorator name the RS101 checker looks for.
ALLOW_UNTIMED_MATH = "allow_untimed_math"


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
