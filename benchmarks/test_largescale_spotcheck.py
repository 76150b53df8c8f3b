"""Large-scale numerics spot check (Figure 6 at 1/5 paper height).

The numerics benches default to a few thousand rows; this one runs the
Figure 6 comparison on a 100 000 x 500 ``exponent`` matrix — the same
construction as the paper's 500 000-row instance — to demonstrate the
claim the reduced defaults rely on: the approximation errors are
governed by the spectrum, not by the row count, so the reduced-scale
results transfer.

(This is real 100k-row linear algebra, not modeled time.  On a 2-core
Xeon VM the bench takes about 30 s with both cores and 41 s on one
BLAS thread.  Most of it is the three spectral-norm residuals: six
SVDs of a 100 000 x 500 matrix, 25 s on one thread.  Generating the
test matrix takes about 8 s of it, and QP3 about 6 s.)
"""

import numpy as np

from repro import SamplingConfig, random_sampling
from repro.bench.reporting import format_table
from repro.matrices import exponent_matrix
from repro.obs import attach_series
from repro.qr.qrcp import qp3_blocked

M, N, K, P = 100_000, 500, 50, 10


def run_spotcheck():
    a = exponent_matrix(M, N, seed=0)
    row = {"m": M, "qp3": qp3_blocked(a, k=K).residual(a)}
    for q in (0, 1):
        cfg = SamplingConfig(rank=K, oversampling=P, power_iterations=q,
                             seed=1)
        row[f"q{q}"] = random_sampling(a, cfg).residual(a)
    # The reduced-scale reference the rest of the suite runs at.
    small = exponent_matrix(4_000, N, seed=0)
    row["qp3_small"] = qp3_blocked(small, k=K).residual(small)
    row["q0_small"] = random_sampling(
        small, SamplingConfig(rank=K, oversampling=P, seed=1)
    ).residual(small)
    return row


def test_largescale_spotcheck(benchmark, print_table):
    row = benchmark.pedantic(run_spotcheck, rounds=1, iterations=1)

    # Figure 6 relations at 100k rows.
    assert row["q0"] < 10 * row["qp3"]
    assert row["q1"] < 2.5 * row["qp3"]
    assert row["qp3"] < 1e-4  # spectrum-governed error level

    # Scale invariance: 100k-row and 4k-row errors agree within 3x —
    # the justification for the suite's reduced defaults.
    assert row["qp3"] < 3 * row["qp3_small"]
    assert row["qp3_small"] < 3 * row["qp3"]
    assert row["q0"] < 3 * row["q0_small"]
    assert row["q0_small"] < 3 * row["q0"]

    attach_series(benchmark, "largescale_spotcheck", points=[
        {"params": {"m": M},
         "metrics": {k: float(v) for k, v in row.items()}}])
    print_table(format_table(
        ["rows", "QP3", "q=0", "q=1"],
        [[M, row["qp3"], row["q0"], row["q1"]],
         [4_000, row["qp3_small"], row["q0_small"], ""]],
        title="Large-scale spot check (exponent, k=50): errors are "
              "row-count invariant"))
