"""Run one workload in this (fresh) process and print its measurements
as one JSON line.  ``run.py`` starts it with BLAS pinned to one thread;
run that instead of this file.

Set-up time runs from the top of this file - before numpy and
``repro`` are imported - to the moment the workload's inputs exist.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _env() -> dict:
    import numpy as np
    import scipy
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = "unknown"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.write_reference:
        workloads.write_reference()
        print(json.dumps({"reference": str(workloads.REFERENCE)}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.scale == "smoke":
        warmup, ops = wl.smoke
    else:
        warmup = wl.warmup
        ops = max(1, round(args.seconds * wl.ops_per_second))
    if args.trace:
        from tracer import Tracer, install, per_layer_metrics
        tracer = Tracer()
        install(tracer)
    else:
        from tracer import NullTracer
        tracer = NullTracer()

    t0 = time.perf_counter()
    out = wl.run(inputs, args.seed, warmup, ops, tracer)
    run_s = time.perf_counter() - t0

    from stats import beyond, percentile
    n = len(out.latencies)
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "run_s": run_s, "warmup": warmup, "ops": ops,
        "latency_ms": {
            "p50": 1e3 * percentile(out.latencies, 50),
            "p95": 1e3 * percentile(out.latencies, 95),
            "p99": 1e3 * percentile(out.latencies, 99),
            "n": n, "beyond_p95": beyond(n, 95), "beyond_p99": beyond(n, 99)},
        "throughput_ops_s": out.throughput,
        "attempted": out.attempted, "failed": out.failed,
        "problems": out.problems,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "working_set_bytes": out.working_set_bytes,
        "details": out.details,
        "env": _env(),
    }
    if args.trace:
        tracer.uninstall()
        extra = dict.fromkeys(workloads.SERVE_LAYERS, 0)
        extra.update(out.layers)
        result["layers"] = per_layer_metrics(tracer, extra)
        result["spans_dropped"] = tracer.dropped
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": wl.name, "seed": args.seed,
                           **tracer.to_json()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
