"""``repro-bench obs`` — run, render, and diff observability artifacts.

Subcommands::

    repro-bench obs run fig11 --bench BENCH_fig11.json --trace fig11.trace.json
    repro-bench obs run fig15 --race-check --race-report race-report.json
    repro-bench obs render BENCH_fig11.json
    repro-bench obs diff benchmarks/baseline/BENCH_smoke.json BENCH_smoke.json --tol 0.05

``run`` executes one figure's sweep on the instrumented simulated
device and writes the ``BENCH_<figure>.json`` series artifact and/or a
Chrome-trace JSON of the figure's representative run (open it in
Perfetto).  ``diff`` is the CI perf gate; its exit codes are 0
(within tolerance), 1 (regression), 2 (usage error) — see
:mod:`repro.obs.diff`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from .artifact import load_artifact
from .diff import (DEFAULT_FLOOR, DEFAULT_TOLERANCE, diff_artifacts,
                   render_diff)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench obs",
        description="Observability artifacts: produce, render, and "
                    "diff BENCH_*.json / Chrome-trace exports.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one figure instrumented and export artifacts")
    run.add_argument("figure",
                     help="figure to run (a phase-breakdown figure: "
                          "fig11, fig12, fig13, or fig15)")
    run.add_argument("--bench", metavar="PATH", default=None,
                     help="write the BENCH_<figure>.json series "
                          "artifact to PATH")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome-trace JSON of the figure's "
                          "representative run to PATH (open in "
                          "Perfetto)")
    run.add_argument("--label", default=None,
                     help="artifact label (default: the figure name)")
    run.add_argument("--backend", metavar="NAME", default=None,
                     help="compute backend for the run (simulated, "
                          "numpy, torch, cupy, or auto); defaults to "
                          "$REPRO_BACKEND or 'simulated'.  Recorded in "
                          "the artifact's schema-v2 backend field")
    run.add_argument("--overlap", choices=("on", "off"), default="on",
                     help="multi-GPU stream schedule for the --trace "
                          "run: 'on' pipelines compute against comms "
                          "(default), 'off' is the serial-sum ablation; "
                          "--bench always exports both fig15 series")
    run.add_argument("--race-check", action="store_true",
                     help="run the figure's representative config under "
                          "the happens-before race sanitizer and print "
                          "the race report; exits 1 if any race is "
                          "found (see docs/static_analysis.md)")
    run.add_argument("--race-report", metavar="PATH", default=None,
                     help="with --race-check, also write the "
                          "machine-readable race report JSON to PATH")

    render = sub.add_parser("render",
                            help="print one artifact as text tables")
    render.add_argument("artifact", help="BENCH_*.json path")

    diff = sub.add_parser(
        "diff", help="compare two artifacts (the CI perf gate)")
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("new", help="freshly produced BENCH_*.json")
    diff.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                      help="relative tolerance before a slower phase "
                           f"fails the gate (default {DEFAULT_TOLERANCE})")
    diff.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                      help="modeled seconds below which phases are "
                           f"never gated (default {DEFAULT_FLOOR})")
    diff.add_argument("--show-ok", action="store_true",
                      help="also list values that matched")
    return parser


def _cmd_run(args) -> int:
    # Imports are deferred so `obs diff` stays light for CI.
    from ..bench.export import OBS_FIGURES, write_figure_artifact
    from ..bench.harness import observed_fixed_rank
    from .chrome import write_chrome_trace

    if args.figure not in OBS_FIGURES:
        print(f"obs run: unsupported figure {args.figure!r}; supported: "
              f"{', '.join(sorted(OBS_FIGURES))}", file=sys.stderr)
        return EXIT_ERROR
    if not args.bench and not args.trace and not args.race_check:
        print("obs run: nothing to do; pass --bench, --trace, and/or "
              "--race-check", file=sys.stderr)
        return EXIT_ERROR
    if args.race_report and not args.race_check:
        print("obs run: --race-report requires --race-check",
              file=sys.stderr)
        return EXIT_ERROR
    if args.backend:
        # Resolve eagerly for a clean error, then export for every
        # executor the figure sweep constructs downstream.
        import os

        from ..backends import make_backend
        make_backend(args.backend)
        os.environ["REPRO_BACKEND"] = args.backend
    races_found = 0
    if args.race_check:
        from ..analysis.races import render_report, write_report
        _, recorder = observed_fixed_rank(
            args.figure, overlap=(args.overlap != "off"), race_check=True)
        report = recorder.race_report or {}
        print(render_report(report))
        if args.race_report:
            write_report(args.race_report, report)
            print(f"[wrote {args.race_report}]")
        races_found = report.get("race_count", 0)
    if args.trace:
        timing, recorder = observed_fixed_rank(
            args.figure, overlap=(args.overlap != "off"))
        write_chrome_trace(args.trace, recorder,
                           process_name=f"simulated-gpu {args.figure}")
        print(f"[wrote {args.trace}: {sum(1 for _ in recorder.kernel_spans())} "
              f"kernel spans, {timing.total:.4f} modeled s, "
              f"{timing.gflops:.1f} Gflop/s, peak memory "
              f"{timing.peak_memory_bytes / 1e9:.2f} GB]")
    if args.bench:
        doc = write_figure_artifact(args.bench, args.figure,
                                    label=args.label,
                                    backend=args.backend)
        npts = len(doc["figures"][args.figure]["points"])
        print(f"[wrote {args.bench}: {npts} points, "
              f"backend={doc['backend']}, "
              f"wall_clock_s={doc['wall_clock_s']:.3f}]")
    return EXIT_REGRESSION if races_found else EXIT_OK


def _cmd_render(args) -> int:
    from ..bench.reporting import format_table
    from ..gpu.trace import PHASES

    doc = load_artifact(args.artifact)
    print(f"artifact {args.artifact}: label={doc['label']!r} "
          f"schema_version={doc['schema_version']}")
    for fig, entry in sorted(doc["figures"].items()):
        points = entry["points"]
        phase_cols = [p for p in PHASES
                      if any(p in (pt.get("phases") or {})
                             for pt in points)]
        metric_cols = sorted({m for pt in points
                              for m in (pt.get("metrics") or {})})
        headers = (["params"] + phase_cols
                   + (["total"] if any("total_seconds" in pt
                                       for pt in points) else [])
                   + metric_cols)
        rows = []
        for pt in points:
            params = ",".join(f"{k}={v}"
                              for k, v in sorted(pt["params"].items()))
            row = [params]
            row += [(pt.get("phases") or {}).get(p, "") for p in phase_cols]
            if "total" in headers:
                row.append(pt.get("total_seconds", ""))
            row += [(pt.get("metrics") or {}).get(m, "")
                    for m in metric_cols]
            rows.append(row)
        print()
        print(format_table(headers, rows, title=f"figure {fig}"))
        for name, value in sorted((entry.get("metrics") or {}).items()):
            print(f"  {name} = {value}")
    return EXIT_OK


def _cmd_diff(args) -> int:
    base = load_artifact(args.baseline)
    new = load_artifact(args.new)
    result = diff_artifacts(base, new, tol=args.tol, floor=args.floor)
    print(render_diff(result, tol=args.tol, show_ok=args.show_ok))
    return EXIT_OK if result.ok else EXIT_REGRESSION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep the code.
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "render":
            return _cmd_render(args)
        return _cmd_diff(args)
    except ReproError as exc:
        print(f"repro-bench obs: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
