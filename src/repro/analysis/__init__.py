"""Static analysis for the simulated-GPU executor contract.

The reproduction's performance figures are only as faithful as three
invariants nothing else enforces: every FLOP in :mod:`repro.core` is
charged through an executor (so modeled times follow the K40c rate
models), every charge lands on one of the paper's seven phase-legend
tags (Figures 11-15), and every path stays safe under symbolic
:class:`repro.gpu.SymArray` execution at paper scale.  This package is
the compiler-grade checker for those invariants, plus repo hygiene:

======  =====================================================
RS101   untimed math inside ``repro.core`` (bypasses executor)
RS102   phase tag not in ``repro.gpu.trace.PHASES``
RS103   value-dependent op on ArrayLike without symbolic guard
RS104   ``raise ValueError``/... instead of ``repro.errors``
RS105   legacy ``np.random.*`` bypassing seeded Generators
RS106   missing ``__all__`` / export drift
RS107   bench series bypassing ``attach_series``
RS108   direct ``device.charge`` in the stream-scheduled multi-GPU
        executor (``repro/gpu/multigpu.py``)
RS109   returned ``StreamEvent`` discarded (sync dropped on the floor)
RS110   transfer submit with empty ``deps`` and no ``after_all``
RS111   ``submit``/``submit_group`` without ``reads=``/``writes=``
        race-sanitizer annotations (``repro/gpu/multigpu.py``)
RS113   stale ``# repro: noqa`` suppressing nothing
RS114   raw ``np.linalg``/``np.fft``/``scipy.linalg`` outside
        ``repro/backends`` (bypasses the pluggable-backend seam)
RS122   ``submit``/``submit_group`` race annotation is incomplete
        (missing/empty ``writes=``, or a derived read such as
        ``"B@g0"`` whose base buffer is never written)
RS123   math on a path where the charge is conditional (uncharged
        or double-charged branch in a timed scope)
RS125   async hygiene in ``repro.serve``: blocking call inside an
        ``async def``, un-awaited coroutine, unbounded queue
======  =====================================================

The static concurrency lints (RS109-RS111) pair with the dynamic
happens-before race sanitizer in :mod:`repro.analysis.races`.  Every
rule is per file: the engine parses each file once and runs the
selected checkers over it, with no cross-module state.

Charged kernel dimensions are not a static concern: the executor ops
are built on charged primitives that read them from their operands,
and ``repro-bench analyze --audit-costs`` (:mod:`repro.analysis.audit`)
checks the per-phase flops an instrumented run charges against the
paper's Figure 5 closed forms.

Run ``python -m repro.analysis src/repro`` (or ``python -m repro.cli
analyze``); see ``docs/static_analysis.md`` for the rule reference,
the ``# repro: noqa RSxxx`` suppression syntax, baselines and SARIF
export (``--format sarif``).

This ``__init__`` stays import-light (only the finding dataclass and
the :func:`allow_untimed_math` marker) because algorithm modules import
the marker at package-import time; the engine and rules load lazily
when an analysis actually runs.
"""

from __future__ import annotations

from .annotations import allow_untimed_math
from .findings import (EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                       AnalysisFinding)

__all__ = [
    "AnalysisFinding",
    "allow_untimed_math",
    "analyze_paths",
    "main",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
]


def analyze_paths(*args, **kwargs):
    """Lazy proxy for :func:`repro.analysis.engine.analyze_paths`."""
    from .engine import analyze_paths as _impl
    return _impl(*args, **kwargs)


def main(argv=None):
    """Lazy proxy for :func:`repro.analysis.cli.main`."""
    from .cli import main as _impl
    return _impl(argv)
