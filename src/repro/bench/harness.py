"""Shared plumbing for the figure drivers.

The performance experiments run the *real algorithm control flow* over
symbolic (shape-only) arrays on the simulated device, so a 150 000 x
2 500 sweep point costs microseconds of wall time while producing the
modeled phase breakdown the paper plots.  Numerics experiments
(Figures 6, 16, 17) run real matrices, optionally scaled down via
:func:`scale_rows` (set ``REPRO_FULL_SCALE=1`` for paper sizes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import SamplingConfig
from ..core.random_sampling import random_sampling
from ..errors import ConfigurationError
from ..gpu.device import GPUExecutor, NumpyExecutor, SymArray
from ..gpu.kernels import KernelModel
from ..gpu.multigpu import MultiGPUExecutor
from ..gpu.specs import GPUSpec, KEPLER_K40C
from ..obs.spans import SpanRecorder

__all__ = ["FixedRankTiming", "timed_fixed_rank", "qp3_baseline_seconds",
           "scale_rows", "full_scale", "OBS_RUN_CONFIGS",
           "observed_fixed_rank"]


def full_scale() -> bool:
    """True when the environment requests paper-scale experiments."""
    return os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0", "false")


def scale_rows(paper_rows: int, scaled_rows: int) -> int:
    """Pick the row count for a numerics experiment: the paper's value
    under ``REPRO_FULL_SCALE=1``, the laptop-scale default otherwise."""
    return paper_rows if full_scale() else scaled_rows


@dataclass
class FixedRankTiming:
    """Modeled timing of one fixed-rank run (one Figure 11-15 bar)."""

    m: int
    n: int
    k: int
    sample_size: int
    q: int
    ng: int
    total: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Observability aggregates (filled when a recorder watched the run).
    flops: float = 0.0
    bytes_moved: float = 0.0
    gflops: float = 0.0
    peak_memory_bytes: int = 0

    @property
    def step1_fraction(self) -> float:
        """Share of time in Step 1 (PRNG + sampling + iteration), the
        78 %-at-m=50k statistic of Section 9."""
        s1 = sum(self.breakdown.get(p, 0.0)
                 for p in ("prng", "sampling", "gemm_iter", "orth_iter"))
        return s1 / self.total if self.total > 0 else 0.0


def timed_fixed_rank(m: int, n: int, k: int = 54, p: int = 10, q: int = 1,
                     ng: int = 1, sampler: str = "gaussian",
                     spec: GPUSpec = KEPLER_K40C,
                     seed: int = 0,
                     recorder: Optional[SpanRecorder] = None,
                     overlap: bool = True,
                     race_check: bool = False,
                     backend: Optional[str] = None
                     ) -> FixedRankTiming:
    """Run the fixed-rank algorithm symbolically on the simulated
    device(s) and return the modeled phase breakdown.

    Every run is watched by a :class:`repro.obs.spans.SpanRecorder`
    (pass ``recorder`` to supply your own and read its span tree; the
    default one is never read, so it builds no span); the returned
    timing carries the recorder's aggregates (FLOPs, bytes moved,
    achieved Gflop/s, peak device memory).  ``overlap`` selects
    the multi-GPU stream schedule: ``True`` pipelines compute against
    communication (the paper's runtime), ``False`` is the serial-sum
    ablation; phase breakdowns are identical either way.

    ``backend`` picks the compute backend the (non-symbolic parts of
    the) math runs on — ``None`` means the session default, the
    bit-reproducible ``"simulated"`` engine.  The backend's name and
    real wall-clock land on the recorder and in BENCH artifacts next
    to the modeled totals.

    ``race_check=True`` (multi-GPU runs only) attaches a happens-before
    :class:`repro.analysis.races.RaceChecker` to the stream scheduler
    in collecting mode; detected races land in ``recorder.races`` and
    the full report in ``recorder.race_report``.  Observation-only:
    modeled totals are unchanged.
    """
    if ng == 1:
        ex: NumpyExecutor = GPUExecutor(spec=spec, seed=seed,
                                        backend=backend)
    else:
        ex = MultiGPUExecutor(ng=ng, spec=spec, seed=seed, overlap=overlap,
                              backend=backend)
    rec = recorder if recorder is not None else SpanRecorder()
    ex.attach_recorder(rec)
    rec.note_backend(ex.backend)
    checker = None
    if race_check and hasattr(ex, "streams"):
        from ..analysis.races import RaceChecker
        checker = RaceChecker()
        ex.streams.attach_race_checker(checker)
    cfg = SamplingConfig(rank=k, oversampling=p, power_iterations=q,
                         sampler=sampler, seed=seed,
                         backend=ex.backend.name)
    run_name = f"fixed-rank m={m} n={n} k={k} q={q} ng={ng}"
    with rec.run_span(run_name):
        res = random_sampling(SymArray((m, n)), cfg, executor=ex)
    if checker is not None:
        rec.race_report = checker.report()
    elif race_check:
        rec.race_report = {"version": 1, "race_count": 0, "races": [],
                           "submissions": 0, "buffers": [], "lanes": [],
                           "note": "single-device run: no stream "
                                   "scheduler, nothing to race"}
    return FixedRankTiming(m=m, n=n, k=k, sample_size=cfg.sample_size, q=q,
                           ng=ng, total=res.seconds,
                           breakdown={ph: s for ph, s in res.breakdown.items()
                                      if s > 0.0},
                           flops=rec.total_flops,
                           bytes_moved=rec.total_bytes_moved,
                           gflops=rec.achieved_gflops(),
                           peak_memory_bytes=rec.peak_memory_bytes)


#: Representative single run per phase-breakdown figure, used by
#: ``repro-bench obs run <figure> --trace`` to produce a Chrome trace.
OBS_RUN_CONFIGS: Dict[str, Dict[str, int]] = {
    "fig11": {"m": 50_000, "n": 2_500, "k": 54, "p": 10, "q": 1, "ng": 1},
    "fig12": {"m": 50_000, "n": 5_000, "k": 54, "p": 10, "q": 1, "ng": 1},
    "fig13": {"m": 50_000, "n": 2_500, "k": 310, "p": 10, "q": 1, "ng": 1},
    "fig15": {"m": 150_000, "n": 2_500, "k": 54, "p": 10, "q": 1, "ng": 3},
}


def observed_fixed_rank(figure: str, **overrides):
    """Run ``figure``'s representative configuration under a fresh
    recorder; returns ``(FixedRankTiming, SpanRecorder)``."""
    try:
        params = dict(OBS_RUN_CONFIGS[figure])
    except KeyError:
        raise ConfigurationError(
            f"no observability run config for {figure!r}; available: "
            f"{sorted(OBS_RUN_CONFIGS)}") from None
    params.update(overrides)
    rec = SpanRecorder()
    timing = timed_fixed_rank(recorder=rec, **params)
    return timing, rec


def qp3_baseline_seconds(m: int, n: int, k: int = 54,
                         spec: GPUSpec = KEPLER_K40C) -> float:
    """Modeled time of the truncated QP3 baseline on one device."""
    return KernelModel(spec).qp3_seconds(m, n, k)
