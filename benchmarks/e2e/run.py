"""Run the repository benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale full|smoke]
    python3 benchmarks/e2e/run.py --write-reference

Each workload runs in a fresh child process with BLAS pinned to one
thread and every ``REPRO_*`` variable removed from its environment.
The untraced run reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace`` adds a separate traced run that reports its per-layer
metrics and writes ``benchmarks/e2e/out/trace-<workload>.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from stats import quartiles

__all__ = ["BenchError", "child_env", "measure", "main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Set-up is measured in this many fresh processes; the median counts.
SETUP_RUNS = 3
#: Every workload finishes (or is abandoned) within this many seconds.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*``, BLAS on one thread
    (set before the child imports numpy)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(args: List[str], deadline: float) -> Dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {' '.join(args)}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, timeout=timeout,
            text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def llc_bytes() -> int:
    """Size of the last-level cache, 0 when the system does not say."""
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        return 0
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _report(spec_metrics: List[Dict], values: Dict[str, float],
            runs: List[Dict], **fields) -> Dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"{fields['workload']}: no value for {missing}")
    report = dict(fields)
    report["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]}
                         for m in spec_metrics}
    report["attempted"] = sum(r["attempted"] for r in runs)
    report["failed"] = sum(r["failed"] for r in runs)
    report["failed_ratio"] = report["failed"] / report["attempted"]
    report["problems"] = [p for r in runs for p in r["problems"]]
    return report


def measure(name: str, seed: int, seconds: float, scale: str,
            end_to_end: bool, trace: bool) -> List[Dict]:
    """Run one workload: the untraced child (plus set-up-only children)
    for the end-to-end report, and with ``trace`` a traced child for
    the per-layer report, whose p50 is compared with the untraced one."""
    spec = load_spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--scale", scale]
    main = run_child(common, deadline)
    llc = llc_bytes()
    base = {"workload": name, "seed": seed, "scale": scale,
            "ops": {"warmup": main["warmup"], "measured": main["ops"],
                    "run_s": main["run_s"]},
            "details": main["details"],
            "env": {**main["env"], "nproc": os.cpu_count(),
                    "git_sha": git_sha(), "llc_bytes": llc,
                    "working_set_bytes": main["working_set_bytes"],
                    "working_set_in_llc": main["working_set_bytes"] <= llc}}
    reports = []
    if end_to_end:
        repeats = 1 if scale == "smoke" else SETUP_RUNS
        setups = [main["setup_s"]] + [
            run_child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(repeats - 1)]
        lat = main["latency_ms"]
        values = {"setup_s": quartiles(setups)["median"],
                  "latency_p50_ms": lat["p50"],
                  "throughput_ops_s": main["throughput_ops_s"],
                  "peak_rss_mb": main["peak_rss_mb"]}
        reports.append(_report(spec["end_to_end"], values, [main], trace=0,
                               setup_samples=len(setups), latency_ms=lat,
                               **base))
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}.json"
        traced = run_child(common + ["--trace", "1", "--trace-out",
                                     str(path)], deadline)
        values = dict(traced["layers"])
        values["trace_overhead_ratio"] = (traced["latency_ms"]["p50"]
                                          / main["latency_ms"]["p50"] - 1)
        runs = [traced] if end_to_end else [main, traced]
        reports.append(_report(
            spec["per_layer"], values, runs, trace=1,
            trace_file=str(path.relative_to(ROOT)),
            spans_dropped=traced["spans_dropped"], **base))
    return reports


def print_report(report: Dict) -> None:
    notes = {}
    if not report["trace"]:
        lat = report["latency_ms"]
        notes = {"setup_s": f"median of {report['setup_samples']} processes",
                 "latency_p50_ms": f"n={lat['n']}; ungated: "
                                   f"p95 {lat['p95']:.4g} ms "
                                   f"({lat['beyond_p95']} beyond), "
                                   f"p99 {lat['p99']:.4g} ms "
                                   f"({lat['beyond_p99']} beyond)"}
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['trace'] else 'untraced'}): "
          f"{report['failed']}/{report['attempted']} failed")
    for name, m in report["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:9s} "
              f"{notes.get(name, '')}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps(report))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    ap.add_argument("--workload", default="all",
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length the op counts are sized for "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: a few ops per workload, for tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the modeled-clock reference and exit")
    args = ap.parse_args(argv)
    # Exit on SIGTERM through an exception, so subprocess.run kills and
    # reaps the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            print(run_child(["--write-reference"],
                            time.monotonic() + TIME_LIMIT_S)["reference"])
            return 0
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        chosen = names if args.workload == "all" else [args.workload]
        # A single traced workload reports only its per-layer metrics
        # (the end-to-end ones come from its --trace 0 run).
        end_to_end = len(chosen) > 1 or not args.trace
        reports = []
        for name in chosen:
            for report in measure(name, args.seed, seconds, args.scale,
                                  end_to_end, bool(args.trace)):
                print_report(report)
                reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in reports
                   for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
