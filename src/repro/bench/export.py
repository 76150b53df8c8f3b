"""Machine-readable export of experiment results.

``python -m repro.cli fig11 --json out.json`` routes every driver's
data through :func:`to_jsonable` and writes one JSON document per
experiment, so downstream plotting (matplotlib notebooks, paper-diff
scripts) can consume the reproduction without scraping tables.

``repro-bench obs run`` goes through :func:`write_figure_artifact`
instead, which produces the versioned ``BENCH_<figure>.json`` series
artifact defined by :mod:`repro.obs.artifact`.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional

from ..errors import ConfigurationError
# Canonical converter lives with the artifact schema; re-exported here
# because every driver historically imported it from this module.
from ..obs.artifact import (build_artifact, figure_record, to_jsonable,
                            write_artifact)

__all__ = ["to_jsonable", "dump_json", "collect_experiment",
           "OBS_FIGURES", "write_figure_artifact"]


def dump_json(data: Any, path: str, experiment: str) -> None:
    """Write ``{"experiment": ..., "data": ...}`` to ``path``."""
    doc = {"experiment": experiment, "data": to_jsonable(data)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


#: Driver registry for export: experiment name -> zero-arg callable
#: returning plain data.  Populated lazily to avoid import cycles.
def collect_experiment(name: str) -> Any:
    """Run one experiment driver and return its raw data."""
    from . import figures

    drivers: Dict[str, Callable[[], Any]] = {
        "table1": figures.table1_matrices,
        "fig06": lambda: figures.fig06_accuracy(include_p0=True,
                                                include_fft=True),
        "fig07": figures.fig07_tallskinny_qr,
        "fig08": lambda: {
            "row": figures.fig08_sampling_kernels(axis="row"),
            "col": figures.fig08_sampling_kernels(axis="col")},
        "fig09": figures.fig09_shortwide_qr,
        "fig10": figures.fig10_estimated_gflops,
        "fig11": figures.fig11_time_vs_rows,
        "fig12": figures.fig12_time_vs_cols,
        "fig13": figures.fig13_time_vs_rank,
        "fig14": figures.fig14_time_vs_iterations,
        "fig15": figures.fig15_multigpu_scaling,
        "fig16": figures.fig16_adaptive_convergence,
        "fig17": figures.fig17_adaptive_time,
        "fig18": figures.fig18_gemm_small_l,
    }
    try:
        driver = drivers[name]
    except KeyError:
        raise ConfigurationError(
            f"no exportable driver for {name!r}; available: "
            f"{sorted(drivers)}") from None
    return driver()


def _obs_figures() -> Dict[str, Callable[[], Any]]:
    from . import figures

    return {
        "fig11": figures.fig11_time_vs_rows,
        "fig12": figures.fig12_time_vs_cols,
        "fig13": figures.fig13_time_vs_rank,
        # fig15 exports the overlap ablation: the pipelined (on) and
        # serial-model (off) series, distinguished by the "overlap"
        # point parameter.
        "fig15": figures.fig15_overlap_ablation,
    }


#: Figures exportable as BENCH artifacts (phase-breakdown sweeps).
OBS_FIGURES = frozenset(("fig11", "fig12", "fig13", "fig15"))


def write_figure_artifact(path: str, name: str,
                          label: Optional[str] = None,
                          backend: Optional[str] = None) -> Dict:
    """Run one phase-breakdown figure driver and write its reproduced
    series as a ``BENCH_<figure>.json`` artifact; returns the document.

    The schema-v2 fields record which compute backend the session ran
    on (``backend``, defaulting to the session default's name) and the
    real wall-clock seconds the driver took — the paper-model totals
    inside the points stay modeled seconds.  Figure-level metrics carry
    the matrix-gallery LRU counter deltas of the run
    (``matrix_cache_{hits,misses,entries}``), drift-only in the
    ``obs diff`` gate.
    """
    from ..matrices.registry import matrix_cache_info

    drivers = _obs_figures()
    try:
        driver = drivers[name]
    except KeyError:
        raise ConfigurationError(
            f"figure {name!r} has no BENCH artifact export; available: "
            f"{sorted(drivers)}") from None
    before = matrix_cache_info()
    t0 = time.perf_counter()
    record = figure_record(name, breakdown_points=driver())
    wall = time.perf_counter() - t0
    after = matrix_cache_info()
    cache_metrics = {
        "matrix_cache_hits": after["hits"] - before["hits"],
        "matrix_cache_misses": after["misses"] - before["misses"],
        "matrix_cache_entries": after["entries"],
    }
    record.setdefault("metrics", {}).update(to_jsonable(cache_metrics))
    doc = build_artifact([record], label=label or name,
                         backend=backend, wall_clock_s=wall)
    write_artifact(path, doc)
    return doc
