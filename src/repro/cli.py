"""Command-line interface: regenerate any table or figure.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli fig11
    python -m repro.cli fig06 --full-scale
    python -m repro.cli all

Performance figures run on the simulated device in milliseconds;
numerics figures (6, 16, 17) compute real matrices at reduced default
sizes unless ``--full-scale`` (or ``REPRO_FULL_SCALE=1``) is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from .bench import figures
from .bench.ascii_plot import line_chart, stacked_bars
from .bench.reporting import (format_breakdown_table, format_series,
                              format_table)
from .gpu.trace import PHASES

#: Set by --plot: figure commands append an ASCII chart to the table.
_PLOT = {"enabled": False}


def _maybe_plot_series(x, series, title, logy=False):
    if _PLOT["enabled"]:
        print()
        print(line_chart(x, series, logy=logy, title=title))


def _maybe_plot_stack(points, x_name, title):
    if _PLOT["enabled"]:
        print()
        print(stacked_bars(
            [pt[x_name] for pt in points],
            [{k: v for k, v in pt["breakdown"].items() if v > 0}
             for pt in points],
            title=title,
            reference={pt[x_name]: pt.get("qp3", pt["total"])
                       for pt in points}))

__all__ = ["main"]

_STACK_PHASES = [p for p in PHASES if p != "other"]


def _print_table1() -> None:
    rows = figures.table1_matrices()
    print(format_table(
        ["matrix", "m", "n", "sigma_0", "sigma_k+1", "kappa"],
        [[r["name"], r["m"], r["n"], r["sigma_0"], r["sigma_k1"],
          r["kappa"]] for r in rows],
        title="Table 1: test matrices (sigma_{k+1} at k = 50)"))


def _print_fig06() -> None:
    rows = figures.fig06_accuracy(include_p0=True, include_fft=True)
    print(format_table(
        ["matrix", "QP3", "q=0", "q=1", "q=2", "q=0,p=0", "q=0,FFT"],
        [[r["name"], r["qp3"], r["q0"], r["q1"], r["q2"],
          r.get("q0_p0", ""), r.get("q0_fft", "")] for r in rows],
        title="Figure 6: approximation error ||AP - QR|| / ||A||"))


def _print_fig07() -> None:
    data = figures.fig07_tallskinny_qr()
    ms = data.pop("m")
    print(format_series(ms, data, x_name="m",
                        title="Figure 7: tall-skinny QR (n = 64), Gflop/s"))
    _maybe_plot_series(ms, data, "Figure 7 (Gflop/s, log y)", logy=True)


def _print_fig08() -> None:
    for axis in ("row", "col"):
        data = figures.fig08_sampling_kernels(axis=axis)
        ls = data.pop("l")
        print(format_series(
            ls, data, x_name="l",
            title=f"Figure 8{'a' if axis == 'row' else 'b'}: "
                  f"{axis} sampling (m = 50 000, n = 2 500), Gflop/s"))
        print()


def _print_fig09() -> None:
    data = figures.fig09_shortwide_qr()
    ns = data.pop("n")
    print(format_series(ns, data, x_name="n",
                        title="Figure 9: short-wide QR (m = 64), Gflop/s"))


def _print_fig10() -> None:
    data = figures.fig10_estimated_gflops()
    ms = data.pop("m")
    print(format_series(ms, data, x_name="m",
                        title="Figure 10: estimated Gflop/s "
                              "(n = 2 500, l = 64)"))
    _maybe_plot_series(ms, data, "Figure 10 (Gflop/s)")


def _print_fig05() -> None:
    from math import sqrt
    from .perfmodel import costs
    m, n, l, k, q = 50_000, 2_500, 64, 54, 1
    rows = [
        ("Sampling (Gaussian)", costs.gaussian_sampling_cost(m, n, l)),
        ("Sampling (FFT)", costs.fft_sampling_cost(m, n, l)),
        ("Iter. (mult.)", costs.power_iteration_mult_cost(m, n, l, q)),
        ("Iter. (orth.)", costs.power_iteration_orth_cost(m, n, l, q)),
        ("QRCP", costs.qrcp_sampled_cost(n, l, k)),
        ("QR", costs.qr_selected_cost(m, k)),
        ("Total", costs.random_sampling_total_cost(m, n, l, k, q)),
        ("QP3", costs.qp3_cost(m, n, k)),
        ("CAQP3", costs.caqp3_cost(m, n)),
    ]
    print(format_table(
        ["step", "#flops", "#words", "flops/word"],
        [[name, c.flops, c.words, c.intensity()] for name, c in rows],
        title=f"Figure 5 at (m,n,l,k,q)=({m},{n},{l},{k},{q}); "
              f"sqrt(M_fast)={sqrt(costs.DEFAULT_FAST_MEMORY):.0f}"))


def _print_stacked(points: List[Dict], x_name: str, title: str,
                   extra=("qp3", "speedup")) -> None:
    extras = [e for e in extra if e in points[0]]
    print(format_breakdown_table(points, x_name, _STACK_PHASES,
                                 extra=extras, title=title))
    _maybe_plot_stack(points, x_name, title + " [stack]")


def _print_fig11() -> None:
    _print_stacked(figures.fig11_time_vs_rows(), "m",
                   "Figure 11: time (s) vs rows "
                   "(n = 2 500, (k; p; q) = (54; 10; 1))")


def _print_fig12() -> None:
    _print_stacked(figures.fig12_time_vs_cols(), "n",
                   "Figure 12: time (s) vs columns (m = 50 000)")


def _print_fig13() -> None:
    _print_stacked(figures.fig13_time_vs_rank(), "l",
                   "Figure 13: time (s) vs subspace size "
                   "(m = 50 000, n = 2 500)")


def _print_fig14() -> None:
    data = figures.fig14_time_vs_iterations()
    ms = data.pop("m")
    print(format_series(ms, data, x_name="m",
                        title="Figure 14: time (s) vs power iterations"))


def _print_fig15() -> None:
    for overlap in (True, False):
        points = figures.fig15_multigpu_scaling(overlap=overlap)
        tag = "overlap=on" if overlap else "overlap=off (serial model)"
        _print_stacked(points, "ng",
                       f"Figure 15: strong scaling, (m; n) = "
                       f"(150k; 2 500), {tag}",
                       extra=("speedup", "comms_fraction"))
        if overlap:
            print()


def _print_fig16() -> None:
    runs = figures.fig16_adaptive_convergence()
    for run in runs:
        rows = list(zip(run["sizes"], run["estimates"],
                        run["actual_errors"]))
        print(format_table(
            ["l", "eps_tilde", "actual_error"], rows,
            title=f"Figure 16: adaptive convergence, l_inc = "
                  f"{run['l_inc']} (final l = {run['final_size']})"))
        print()


def _print_fig17() -> None:
    runs = figures.fig17_adaptive_time()
    rows = [[r["l_inc"], r["rule"], r["final_size"],
             r["total_seconds"], r["converged"]] for r in runs]
    print(format_table(
        ["l_inc", "rule", "final_l", "modeled_s", "converged"], rows,
        title="Figure 17: adaptive scheme, modeled time to tolerance"))


def _print_fig18() -> None:
    data = figures.fig18_gemm_small_l()
    print(format_series(data["l_inc"], {"gemm_gflops": data["gemm_gflops"]},
                        x_name="l_inc",
                        title="Figure 18: GEMM Gflop/s at adaptive "
                              "panel widths (m = 50 000, n = 2 500)"))


def _print_ablation_orth() -> None:
    from .bench.ablations import orthogonalization_ablation
    rows = orthogonalization_ablation()
    print(format_table(
        ["scheme", "error", "modeled_s (50k x 2.5k, q=2)"],
        [[r["scheme"], r["error"], r["modeled_s"]] for r in rows],
        title="Ablation: orthogonalization scheme in the power "
              "iteration"))


def _print_ablation_oversampling() -> None:
    from .bench.ablations import oversampling_ablation
    rows = oversampling_ablation()
    print(format_table(
        ["p", "median error", "modeled_s"],
        [[r["p"], r["error"], r["modeled_s"]] for r in rows],
        title="Ablation: oversampling p at k = 50"))


def _print_ablation_sampler() -> None:
    from .bench.ablations import sampler_ablation
    rows = sampler_ablation()
    print(format_table(
        ["sampler", "error", "modeled_s (l=64)", "modeled_s (l=320)"],
        [[r["sampler"], r["error"], r["modeled_s_l64"],
          r["modeled_s_l320"]] for r in rows],
        title="Ablation: Gaussian vs FFT sampling (q=0)"))


def _print_ablation_comm() -> None:
    from .bench.ablations import comm_cost_ablation
    rows = comm_cost_ablation()
    print(format_table(
        ["sync_scale", "QP3 (s)", "CAQP3 (s)", "sampling q=1 (s)",
         "speedup"],
        [[r["sync_scale"], r["qp3"], r["caqp3"], r["sampling_q1"],
          r["qp3"] / r["sampling_q1"]] for r in rows],
        title="Ablation: per-sync cost 1x-1000x (SS11)"))


def _print_ablation_fixed_accuracy() -> None:
    from .bench.ablations import fixed_accuracy_ablation
    rows = fixed_accuracy_ablation()
    print(format_table(
        ["tol", "QP3 rank", "QP3 err", "QP3 s", "adaptive l",
         "adaptive err", "adaptive s"],
        [[r["tol"], r["qp3_rank"], r["qp3_err"], r["qp3_modeled_s"],
          r["adaptive_l"], r["adaptive_err"], r["adaptive_modeled_s"]]
         for r in rows],
        title="Ablation: fixed-accuracy problem"))


def _print_ablation_cluster() -> None:
    from .bench.ablations import (cluster_latency_ablation,
                                  cluster_scaling_ablation)
    times = cluster_scaling_ablation()
    print(format_table(
        ["nodes", "sampling (s)", "speedup vs 1 node"],
        [[nodes, t, times[1] / t] for nodes, t in times.items()],
        title="Cluster strong scaling (3 GPUs/node, m = 600k)"))
    print()
    rows = cluster_latency_ablation()
    print(format_table(
        ["latency (s)", "k", "sampling (s)", "QP3 (s)", "speedup"],
        [[r["latency"], r["k"], r["sampling"], r["qp3"], r["speedup"]]
         for r in rows],
        title="SS11 projection: speedup vs interconnect latency "
              "(8 nodes)"))


def _print_diff() -> None:
    from .bench.paper_reference import reproduction_report
    rows = reproduction_report()
    print(format_table(
        ["status", "experiment", "claim", "paper", "measured", "rtol"],
        [[r["status"], r["experiment"], r["claim"], r["paper"],
          r["measured"], r["rtol"]] for r in rows],
        title="Reproduction report: paper vs measured "
              f"({sum(r['status'] == 'PASS' for r in rows)}/{len(rows)} "
              "PASS)"))
    fails = [r for r in rows if r["status"] == "FAIL"]
    if fails:
        print(f"\n{len(fails)} claim(s) FAILED")


_COMMANDS: Dict[str, Callable[[], None]] = {
    "diff": _print_diff,
    "ablation-orth": _print_ablation_orth,
    "ablation-oversampling": _print_ablation_oversampling,
    "ablation-sampler": _print_ablation_sampler,
    "ablation-comm": _print_ablation_comm,
    "ablation-fixed-accuracy": _print_ablation_fixed_accuracy,
    "ablation-cluster": _print_ablation_cluster,
    "table1": _print_table1,
    "fig05": _print_fig05,
    "fig06": _print_fig06,
    "fig07": _print_fig07,
    "fig08": _print_fig08,
    "fig09": _print_fig09,
    "fig10": _print_fig10,
    "fig11": _print_fig11,
    "fig12": _print_fig12,
    "fig13": _print_fig13,
    "fig14": _print_fig14,
    "fig15": _print_fig15,
    "fig16": _print_fig16,
    "fig17": _print_fig17,
    "fig18": _print_fig18,
}


def main(argv=None) -> int:
    """Entry point for ``python -m repro.cli`` / ``repro-bench``."""
    if argv is None:
        argv = sys.argv[1:]
    # `repro-bench analyze ...` delegates everything after the subcommand
    # to the static analyzer (same engine as `python -m repro.analysis`).
    if argv and argv[0] == "analyze":
        from .analysis.cli import main as analyze_main
        return analyze_main(argv[1:])
    # `repro-bench obs ...` delegates to the observability toolchain
    # (run/render/diff of BENCH_*.json artifacts and Chrome traces).
    if argv and argv[0] == "obs":
        from .obs.cli import main as obs_main
        return obs_main(argv[1:])
    # `repro-bench sweep ...` delegates to the parallel sweep runner
    # (serial-vs-pool wall-clock comparison for the CI job summary).
    if argv and argv[0] == "sweep":
        from .bench.sweep import main as sweep_main
        return sweep_main(argv[1:])
    # `repro-bench serve ...` delegates to the serving layer (the
    # async low-rank service loadtest; see docs/serving.md).
    if argv and argv[0] == "serve":
        from .serve.cli import main as serve_main
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures; "
                    "'analyze' runs the repo's static analyzer; 'obs' "
                    "runs, renders, and diffs observability artifacts.")
    parser.add_argument("experiment",
                        choices=sorted(_COMMANDS) + ["all", "list"],
                        help="which experiment to run ('all' runs every "
                             "one; 'list' prints the available names; "
                             "'analyze' runs the static analyzer — see "
                             "'analyze --help'; 'obs' handles BENCH "
                             "artifacts — see 'obs --help')")
    parser.add_argument("--full-scale", action="store_true",
                        help="use the paper's matrix sizes for the "
                             "numerics experiments (slow)")
    parser.add_argument("--plot", action="store_true",
                        help="append ASCII charts to the figure tables")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the experiment's raw data as "
                             "JSON to PATH (single experiments only)")
    parser.add_argument("--parallel", metavar="N", type=int, default=None,
                        help="run sweep grid points over N worker "
                             "processes (0 = all cores); equivalent to "
                             "REPRO_SWEEP_PROCS=N")
    parser.add_argument("--backend", metavar="NAME", default=None,
                        help="compute backend for the math kernels "
                             "(simulated, numpy, torch, cupy, or 'auto' "
                             "to pick the best installed stack); "
                             "equivalent to REPRO_BACKEND=NAME")
    args = parser.parse_args(argv)

    if args.full_scale:
        os.environ["REPRO_FULL_SCALE"] = "1"
    if args.parallel is not None:
        if args.parallel < 0:
            parser.error("--parallel must be >= 0")
        os.environ["REPRO_SWEEP_PROCS"] = str(args.parallel)
    if args.backend is not None:
        from .backends import make_backend
        from .errors import ConfigurationError
        try:
            make_backend(args.backend)  # fail fast on unknown/unavailable
        except ConfigurationError as exc:
            parser.error(str(exc))
        os.environ["REPRO_BACKEND"] = args.backend
    _PLOT["enabled"] = bool(args.plot)

    if args.experiment == "list":
        for name in sorted(_COMMANDS):
            print(name)
        return 0
    if args.experiment == "all":
        if args.json:
            parser.error("--json needs a single experiment")
        for name in sorted(_COMMANDS):
            print(f"=== {name} ===")
            _COMMANDS[name]()
            print()
        return 0
    _COMMANDS[args.experiment]()
    if args.json:
        from .bench.export import collect_experiment, dump_json
        dump_json(collect_experiment(args.experiment), args.json,
                  args.experiment)
        print(f"[wrote {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
