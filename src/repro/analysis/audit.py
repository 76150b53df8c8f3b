"""``repro-bench analyze --audit-costs``: charged flops vs Figure 5.

The executor ops charge kernel dimensions they read from their
operands (the charged primitives in :mod:`repro.gpu.device`), so a
charge cannot disagree with the product it bills — but a primitive can
still read the wrong dimension, and a phase can still charge a wrong
coefficient.  This audit catches both by comparing, per phase, two
independent FLOP totals:

``runtime``
    An instrumented run of the imported package: ``timed_fixed_rank``
    on a symbolic :class:`repro.gpu.device.SymArray` with a
    :class:`repro.obs.spans.SpanRecorder` attached, read back from
    ``recorder.counters[phase].flops``.  The run is symbolic, so the
    audit is fast even at paper scale.
``closed``
    The Figure 5 closed form in :mod:`repro.perfmodel.costs` at the
    same dimensions, times the per-step charge convention of
    :data:`COST_STEPS`; at ``ng > 1`` divided over the devices by
    :func:`repro.perfmodel.costs.multi_gpu_scaling`, except for the
    ``qrcp`` step, which runs on device 0.

The audited cells (:data:`AUDIT_CELLS`) are every phase of the fig15
point and two smaller reference points at ``ng=1``, plus the fig15
``sampling``, ``gemm_iter``, ``qrcp`` and ``qr`` phases at ``ng=2`` and
``ng=3``.  ``orth_iter`` is not audited at ``ng > 1``: the replicated
``B`` is orthogonalized on the CPU, so by design it sits a few percent
off the scaled closed form.

Exit code follows the analyzer contract: 0 when every cell agrees to
:data:`DRIFT_TOLERANCE`, 1 on drift.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from ..perfmodel import costs
from .findings import EXIT_CLEAN, EXIT_FINDINGS

__all__ = ["AUDIT_POINTS", "AUDIT_CELLS", "COST_STEPS", "DRIFT_TOLERANCE",
           "audit_rows", "audit_costs", "main"]

#: Audited dimension points.  ``fig15`` is the paper's largest
#: phase-breakdown problem (leading terms dominate, so drift there is
#: model drift, not rounding); the two reference points stay in the
#: paper's regime (``k <= l << n <= m``) with every dimension distinct,
#: so a wrong dimension cannot evaluate coincidentally equal.
AUDIT_POINTS: Dict[str, Dict[str, int]] = {
    "fig15": {"m": 150_000, "n": 2_500, "k": 54, "p": 10, "q": 1},
    "ref-q2": {"m": 15_000, "n": 3_000, "k": 54, "p": 10, "q": 2},
    "ref-q1": {"m": 9_000, "n": 2_000, "k": 24, "p": 8, "q": 1},
}

#: phase -> (Figure 5 closed form, its arguments, charged/closed-form
#: scale).  The ``qr`` scale of 2 is the CholQR2 convention: the run
#: charges both passes of the reorthogonalized factorization while the
#: closed form counts a single QR (see perfmodel/costs.py).
COST_STEPS = {
    "sampling": (costs.gaussian_sampling_cost, ("m", "n", "l"), 1.0),
    "gemm_iter": (costs.power_iteration_mult_cost, ("m", "n", "l", "q"),
                  1.0),
    "orth_iter": (costs.power_iteration_orth_cost, ("m", "n", "l", "q"),
                  1.0),
    "qrcp": (costs.qrcp_sampled_cost, ("n", "l", "k"), 1.0),
    "qr": (costs.qr_selected_cost, ("m", "k"), 2.0),
}

#: ``(point, ng, phase)`` cells the audit gates.
AUDIT_CELLS: Tuple[Tuple[str, int, str], ...] = tuple(
    [(point, 1, phase) for point in AUDIT_POINTS for phase in COST_STEPS]
    + [("fig15", ng, phase) for ng in (2, 3)
       for phase in ("sampling", "gemm_iter", "qrcp", "qr")])

#: Relative drift beyond which a cell fails.  Generous enough for the
#: lower-order terms the closed forms keep (e.g. ``2k^3/3``), tight
#: enough that a wrong leading coefficient or a wrong dimension always
#: trips it.
DRIFT_TOLERANCE = 0.05


def _runtime_phase_flops(point: Dict[str, int], ng: int
                         ) -> Dict[str, float]:
    """Per-phase charged FLOPs of one instrumented symbolic run."""
    from ..bench.harness import timed_fixed_rank
    from ..obs.spans import SpanRecorder
    rec = SpanRecorder()
    timed_fixed_rank(point["m"], point["n"], k=point["k"], p=point["p"],
                     q=point["q"], ng=ng, recorder=rec, seed=0)
    return {phase: counter.flops
            for phase, counter in rec.counters.items()}


def _closed_flops(point: Dict[str, int], ng: int, phase: str) -> float:
    fn, arg_names, scale = COST_STEPS[phase]
    dims = dict(point, l=point["k"] + point["p"])
    cost = fn(*(dims[name] for name in arg_names))
    if ng > 1 and phase != "qrcp":
        cost = costs.multi_gpu_scaling(cost, ng)
    return scale * cost.flops


def _drift(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference)


def audit_rows() -> List[Tuple[str, int, str, float, float, float]]:
    """``(point, ng, phase, runtime, closed, drift)`` for every audited
    cell, with one symbolic run per ``(point, ng)``."""
    runs: Dict[Tuple[str, int], Dict[str, float]] = {}
    rows = []
    for point, ng, phase in AUDIT_CELLS:
        if (point, ng) not in runs:
            runs[point, ng] = _runtime_phase_flops(AUDIT_POINTS[point], ng)
        runtime = runs[point, ng].get(phase, 0.0)
        closed = _closed_flops(AUDIT_POINTS[point], ng, phase)
        rows.append((point, ng, phase, runtime, closed,
                     _drift(runtime, closed)))
    return rows


def audit_costs(tolerance: float = DRIFT_TOLERANCE, out=None) -> int:
    """Run the audit; print the table; return an exit code."""
    out = out if out is not None else sys.stdout
    print(f"[audit-costs: charged flops of symbolic timed_fixed_rank runs "
          f"vs the Figure 5 closed forms, tolerance {tolerance:.0%}]",
          file=out)
    header = (f"{'point':<8} {'ng':>2} {'phase':<10} {'runtime':>12} "
              f"{'closed':>12} {'drift':>8}")
    print(header, file=out)
    print("-" * len(header), file=out)
    failed: List[str] = []
    for point, ng, phase, runtime, closed, drift in audit_rows():
        ok = drift <= tolerance
        if not ok:
            failed.append(f"{point} ng={ng} {phase}")
        print(f"{point:<8} {ng:>2} {phase:<10} {runtime:12.4e} "
              f"{closed:12.4e} {drift:>7.2%}"
              + ("" if ok else "  <-- DRIFT"), file=out)
    if failed:
        print(f"[audit-costs: DRIFT in {len(failed)} cell(s): "
              f"{', '.join(failed)}]", file=out)
        return EXIT_FINDINGS
    print("[audit-costs: runtime and closed-form flops agree in every "
          "audited cell]", file=out)
    return EXIT_CLEAN


def main() -> int:
    return audit_costs()
