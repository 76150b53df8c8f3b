"""Parallel sweep runner: process-pool over figure grid points.

The figure drivers in :mod:`repro.bench.figures` evaluate a grid of
independent sweep points (one modeled run per ``m``/``n``/``l``/``ng``
value).  Modeled runs are cheap, but the Python-side control flow —
and, for numerics figures, the real matrix generation — adds up over a
bench session.  :func:`run_sweep` maps a **top-level picklable worker**
over the grid with a :class:`concurrent.futures.ProcessPoolExecutor`,
preserving order, so ``repro-bench`` and the pytest benches scale to
the runner's cores.

Knobs:

- ``REPRO_SWEEP_PROCS`` (or ``repro-bench --parallel N``) sets the
  worker count; unset/1 keeps the old in-process serial path, ``0``
  means ``os.cpu_count()``.
- Grid points carry their own ``seed`` (see :func:`seeded_grid`), so
  results do not depend on which worker ran which point.
- Workers lean on the per-process LRU matrix cache in
  :mod:`repro.matrices.registry`: repeated sweep points hit the cache
  instead of regenerating identical matrices.

``python -m repro.bench.sweep --compare N`` times the bench-smoke
sweep serially and with ``N`` workers and prints a Markdown table (CI
appends it to the job summary).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError

__all__ = ["sweep_procs", "run_sweep", "seeded_grid", "timed_point",
           "accuracy_point", "compare_wallclock", "format_compare_markdown"]


def sweep_procs(default: int = 1) -> int:
    """Worker count from ``REPRO_SWEEP_PROCS`` (0 -> all cores)."""
    raw = os.environ.get("REPRO_SWEEP_PROCS", "").strip()
    if not raw:
        return default
    try:
        procs = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SWEEP_PROCS must be an integer, got {raw!r}") from None
    if procs < 0:
        raise ConfigurationError(
            f"REPRO_SWEEP_PROCS must be >= 0, got {procs}")
    return procs if procs else (os.cpu_count() or 1)


def run_sweep(worker: Callable[[Dict], object], grid: Sequence[Dict],
              procs: Optional[int] = None) -> List[object]:
    """Map ``worker`` over ``grid`` points, order-preserving.

    ``procs=None`` reads :func:`sweep_procs`; ``procs<=1`` (or a grid
    of one) runs serially in-process — identical results either way,
    because every point is self-contained (own params, own seed).
    ``worker`` must be a module-level function so it pickles.
    """
    grid = list(grid)
    if procs is None:
        procs = sweep_procs()
    if procs <= 1 or len(grid) <= 1:
        return [worker(pt) for pt in grid]
    with ProcessPoolExecutor(max_workers=min(procs, len(grid))) as pool:
        return list(pool.map(worker, grid))


def seeded_grid(grid: Sequence[Dict], base_seed: int = 0) -> List[Dict]:
    """Give every point its own derived seed (``base_seed + index``)
    unless it already carries one: results stay deterministic no
    matter which worker process picks the point up."""
    out = []
    for i, pt in enumerate(grid):
        pt = dict(pt)
        pt.setdefault("seed", base_seed + i)
        out.append(pt)
    return out


# ----------------------------------------------------------------------
# top-level workers (picklable)
# ----------------------------------------------------------------------
def timed_point(params: Dict):
    """One modeled fixed-rank run; ``params`` are
    :func:`repro.bench.harness.timed_fixed_rank` keyword arguments."""
    from .harness import timed_fixed_rank
    return timed_fixed_rank(**params)


def accuracy_point(params: Dict) -> float:
    """One real-matrix accuracy run: residual of random sampling on a
    gallery matrix that the run generates and owns."""
    from ..config import SamplingConfig
    from ..core.random_sampling import random_sampling
    from ..matrices.registry import get_matrix
    a = get_matrix(params["name"], m=params["m"], n=params["n"],
                   seed=params.get("matrix_seed", 0))
    cfg = SamplingConfig(rank=params["k"],
                         oversampling=params.get("p", 10),
                         power_iterations=params.get("q", 1),
                         seed=params.get("seed", 0))
    return random_sampling(a, cfg).residual(a)


# ----------------------------------------------------------------------
# wall-clock comparison (CI job summary)
# ----------------------------------------------------------------------
def _modeled_grid() -> List[Dict]:
    """The bench-smoke modeled sweep: fig11 + fig13 + fig15 (both
    overlap settings) grid points."""
    from .figures import DEFAULT_LS, DEFAULT_MS
    grid: List[Dict] = []
    for m in DEFAULT_MS:
        grid.append({"m": m, "n": 2_500, "k": 54, "p": 10, "q": 1})
    for l in DEFAULT_LS:
        grid.append({"m": 50_000, "n": 2_500, "k": l - 10, "p": 10, "q": 1})
    for overlap in (True, False):
        for ng in (1, 2, 3):
            grid.append({"m": 150_000, "n": 2_500, "k": 54, "p": 10,
                         "q": 1, "ng": ng, "overlap": overlap})
    return seeded_grid(grid)


def _accuracy_grid(points: int, m: int, n: int) -> List[Dict]:
    """Real-matrix accuracy points, each with its own matrix seed so
    every point pays full generation cost (the host-wall-clock-bound
    half of the bench suite, where the pool actually earns its keep)."""
    names = ("power", "exponent")
    grid = [{"name": names[i % len(names)], "m": m, "n": n, "k": 50,
             "p": 10, "q": 1, "matrix_seed": i} for i in range(points)]
    return seeded_grid(grid)


def compare_wallclock(procs: int, repeats: int = 3,
                      accuracy_points: int = 8, m: int = 4_000,
                      n: int = 400) -> Dict[str, float]:
    """Time the smoke sweep (modeled grid + real-matrix accuracy
    points) serially vs with ``procs`` workers; raises if the pooled
    run produced different numbers."""
    modeled = _modeled_grid() * repeats
    accuracy = _accuracy_grid(accuracy_points, m=m, n=n)
    t0 = time.perf_counter()
    serial = run_sweep(timed_point, modeled, procs=1)
    serial_acc = run_sweep(accuracy_point, accuracy, procs=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = run_sweep(timed_point, modeled, procs=procs)
    pooled_acc = run_sweep(accuracy_point, accuracy, procs=procs)
    t_pool = time.perf_counter() - t0
    if [t.total for t in serial] != [t.total for t in pooled] or \
            serial_acc != pooled_acc:
        raise ConfigurationError(
            "parallel sweep changed results; worker is not deterministic")
    return {"points": len(modeled) + len(accuracy), "procs": procs,
            "serial_s": t_serial, "parallel_s": t_pool,
            "speedup": t_serial / t_pool if t_pool > 0 else float("inf")}


def format_compare_markdown(stats: Dict[str, float]) -> str:
    return "\n".join([
        "### Parallel sweep runner",
        "",
        "| points | workers | serial (s) | parallel (s) | speedup |",
        "|-------:|--------:|-----------:|-------------:|--------:|",
        "| {points} | {procs} | {serial_s:.2f} | {parallel_s:.2f} "
        "| {speedup:.2f}x |".format(**stats),
    ])


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sweep",
        description="Compare serial vs process-pool sweep wall-clock "
                    "(Markdown output for the CI job summary).")
    parser.add_argument("--compare", type=int, metavar="N", default=None,
                        help="run the smoke sweep serially and with N "
                             "workers (0 = all cores)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeat the grid this many times (default 3)")
    args = parser.parse_args(argv)
    if args.compare is None:
        parser.error("nothing to do; pass --compare N")
    procs = args.compare if args.compare else (os.cpu_count() or 1)
    print(format_compare_markdown(
        compare_wallclock(procs, repeats=args.repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
