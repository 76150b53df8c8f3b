"""Seeded synthetic load generator behind ``repro-bench serve loadtest``.

Drives a :class:`repro.serve.service.LowRankService` twice with the
*same* deterministic request stream — once with the continuous batcher
on, once with it off (the control arm) — and emits a schema-v2
``BENCH_serve_*.json`` artifact comparing the two.

Two kinds of numbers land in the artifact, on purpose:

- **Observed** wall-clock latency percentiles, batch occupancy, and
  rejection counts go into point *metrics* — machine-dependent, so the
  ``obs diff`` gate treats them as informational drift, never failure.
- **Modeled** sketch-phase seconds (straight from the
  :class:`repro.gpu.kernels.KernelModel`, assuming the intended wave
  structure coalesces perfectly) go into point *phases* /
  ``total_seconds`` — bit-reproducible on any machine, so they form
  the deterministic regression gate against the committed baseline.

The hard service-level assertions (batched p99 <= solo p99, max batch
occupancy >= 8) live in :meth:`LoadReport.gate`, wired to the CLI's
``--gate`` exit code.

All randomness (rank jitter) comes from one ``random.Random(seed)``,
so a seed pins the whole request stream.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..gpu.device import KEPLER_K40C
from ..gpu.kernels import KernelModel
from ..obs.artifact import build_artifact, figure_record, point
from .request import DecompRequest, MatrixRef
from .service import LowRankService, ServeConfig

__all__ = ["LoadSpec", "LoadReport", "run_loadtest"]


@dataclass(frozen=True)
class LoadSpec:
    """One loadtest scenario (fully determined by its fields)."""

    #: Total simulated clients (one request each).
    clients: int = 64
    #: Clients submitting concurrently per wave; every wave's requests
    #: target the same matrix with the Gaussian fixed-rank pipeline, so
    #: a wave is one compatibility class >= this wide.
    concurrency: int = 16
    matrix_name: str = "power"
    m: int = 3000
    n: int = 640
    matrix_seed: int = 0
    #: Rank jitter bounds (inclusive); mixed ranks exercise the
    #: variable-height Omega stacking.  Smoke defaults keep the
    #: per-rider pipeline light so the amortized per-batch cost (one
    #: worker dispatch per plan) dominates the margin.
    rank_min: int = 4
    rank_max: int = 8
    oversampling: int = 4
    #: Batch window handed to the service (seconds).
    window_s: float = 0.012
    #: Kept equal to ``concurrency`` by default so the window closes
    #: the moment a full wave is collected instead of burning the
    #: remaining window on an empty queue.
    max_batch: int = 16
    max_queue_depth: int = 1024
    #: Per-request deadline (None = none; the smoke run leaves this
    #: off so slow CI machines don't shed load and skew percentiles).
    deadline_s: Optional[float] = None
    #: Unmeasured warmup waves per arm (BLAS thread pools, matrix LRU,
    #: allocator) so the first measured wave is not an outlier and the
    #: arm that happens to run first is not penalized.
    warmup_waves: int = 1
    #: Measured repetitions per arm, run alternately (batched, solo,
    #: batched, ...).  The gate compares the *median-of-reps* p99 of
    #: each arm, so a single noisy wave on a shared CI box cannot flip
    #: the verdict.
    repeats: int = 3
    seed: int = 0
    backend: Optional[str] = None

    def validate(self) -> None:
        if self.clients < 1:
            raise ConfigurationError(
                f"clients must be >= 1, got {self.clients}")
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}")
        if not 1 <= self.rank_min <= self.rank_max:
            raise ConfigurationError(
                f"need 1 <= rank_min <= rank_max, got "
                f"[{self.rank_min}, {self.rank_max}]")
        if self.rank_max + self.oversampling > self.m:
            raise ConfigurationError(
                f"l = {self.rank_max + self.oversampling} exceeds "
                f"m = {self.m}")
        if self.repeats < 1:
            raise ConfigurationError(
                f"repeats must be >= 1, got {self.repeats}")

    def matrix_ref(self) -> MatrixRef:
        return MatrixRef(name=self.matrix_name, m=self.m, n=self.n,
                         seed=self.matrix_seed)

    def request_ranks(self) -> List[int]:
        """The deterministic per-client rank stream."""
        rng = random.Random(self.seed)
        return [rng.randint(self.rank_min, self.rank_max)
                for _ in range(self.clients)]

    def waves(self) -> List[List[int]]:
        """Ranks grouped into submission waves of ``concurrency``."""
        ranks = self.request_ranks()
        return [ranks[i:i + self.concurrency]
                for i in range(0, len(ranks), self.concurrency)]


@dataclass
class LoadReport:
    """Everything one loadtest produced, both arms."""

    spec: LoadSpec
    #: The *representative* ``ServiceCounters.summary()`` of each arm —
    #: the repetition with the median p99 — plus ``wall_s`` and
    #: ``errors`` added by the driver.
    batched: Dict = field(default_factory=dict)
    solo: Dict = field(default_factory=dict)
    #: Every repetition's summary, in run order (representatives above
    #: are drawn from these; the gate checks completion on all of them).
    batched_reps: List[Dict] = field(default_factory=list)
    solo_reps: List[Dict] = field(default_factory=list)
    #: Deterministic modeled sketch costs (KernelModel, ideal waves).
    modeled: Dict = field(default_factory=dict)

    @property
    def p99_speedup(self) -> float:
        """Observed solo p99 over batched p99 (>1 means batching won)."""
        b = self.batched.get("latency_p99_s", 0.0)
        s = self.solo.get("latency_p99_s", 0.0)
        return (s / b) if b > 0 else 0.0

    def gate(self, min_occupancy: int = 8) -> List[str]:
        """Hard loadtest assertions; empty list = pass."""
        failures: List[str] = []
        for mode, reps in (("batched", self.batched_reps or
                            [self.batched]),
                           ("solo", self.solo_reps or [self.solo])):
            for i, summary in enumerate(reps):
                if summary.get("completed") != self.spec.clients:
                    failures.append(
                        f"{mode} rep {i}: completed "
                        f"{summary.get('completed')} of "
                        f"{self.spec.clients} requests "
                        f"(errors: {summary.get('errors')})")
        occ = self.batched.get("max_occupancy", 0)
        if occ < min_occupancy:
            failures.append(
                f"batched: max batch occupancy {occ} < required "
                f"{min_occupancy}")
        b = self.batched.get("latency_p99_s", 0.0)
        s = self.solo.get("latency_p99_s", 0.0)
        if b > s:
            failures.append(
                f"batched p99 {b * 1e3:.1f} ms exceeds solo p99 "
                f"{s * 1e3:.1f} ms")
        return failures

    def artifact(self) -> Dict:
        """The schema-v2 BENCH document for this run."""
        spec = self.spec
        base_params = {"clients": spec.clients,
                       "concurrency": spec.concurrency,
                       "m": spec.m, "n": spec.n,
                       "window_ms": spec.window_s * 1e3,
                       "seed": spec.seed}
        points = []
        for mode, summary in (("batched", self.batched),
                              ("solo", self.solo)):
            model = self.modeled[mode]
            metrics = {k: v for k, v in summary.items()
                       if isinstance(v, (int, float))}
            metrics["rejected_total"] = sum(
                summary.get("rejections", {}).values())
            points.append(point(
                params={**base_params, "mode": mode},
                phases={"prng": model["prng_s"],
                        "sampling": model["sampling_s"]},
                total_seconds=model["prng_s"] + model["sampling_s"],
                metrics=metrics))
        record = figure_record(
            "serve", points=points,
            metrics={"p99_speedup": self.p99_speedup,
                     "modeled_sampling_speedup":
                         self.modeled["solo"]["sampling_s"]
                         / self.modeled["batched"]["sampling_s"]},
            meta={"matrix": spec.matrix_name,
                  "rank_range": [spec.rank_min, spec.rank_max],
                  "oversampling": spec.oversampling,
                  "max_batch": spec.max_batch,
                  "repeats": spec.repeats})
        wall = (self.batched.get("wall_s", 0.0)
                + self.solo.get("wall_s", 0.0))
        return build_artifact([record], label="serve-loadtest",
                              backend=spec.backend,
                              wall_clock_s=wall)

    def markdown(self) -> str:
        """The latency/occupancy table for ``$GITHUB_STEP_SUMMARY``."""
        rows = ["| mode | completed | p50 (ms) | p95 (ms) | p99 (ms) "
                "| mean occ | max occ | shed | wall (s) |",
                "|---|---|---|---|---|---|---|---|---|"]
        for mode, s in (("batched", self.batched), ("solo", self.solo)):
            shed = sum(s.get("rejections", {}).values())
            rows.append(
                f"| {mode} | {s.get('completed', 0)} "
                f"| {s.get('latency_p50_s', 0.0) * 1e3:.1f} "
                f"| {s.get('latency_p95_s', 0.0) * 1e3:.1f} "
                f"| {s.get('latency_p99_s', 0.0) * 1e3:.1f} "
                f"| {s.get('mean_occupancy', 0.0):.2f} "
                f"| {s.get('max_occupancy', 0)} | {shed} "
                f"| {s.get('wall_s', 0.0):.2f} |")
        rows.append("")
        rows.append(f"p99 speedup (solo / batched): "
                    f"**{self.p99_speedup:.2f}x** "
                    f"(median-p99 repetition of {self.spec.repeats} "
                    f"per arm)")
        return "\n".join(rows)


def modeled_sketch_costs(spec: LoadSpec) -> Dict[str, Dict[str, float]]:
    """Deterministic modeled Step-1 costs of both arms.

    Assumes the intended wave structure coalesces perfectly (each wave
    = one stacked GEMM); the PRNG draws are per-request in both arms.
    Pure function of the spec — this is what the ``obs diff`` baseline
    gate compares.
    """
    kernels = KernelModel(KEPLER_K40C)
    ls = [[r + spec.oversampling for r in wave]
          for wave in spec.waves()]
    prng = sum(kernels.curand_seconds(l * spec.m)
               for wave in ls for l in wave)
    solo = sum(kernels.gemm_seconds(l, spec.n, spec.m)
               for wave in ls for l in wave)
    batched = sum(kernels.gemm_seconds(sum(wave), spec.n, spec.m)
                  for wave in ls)
    return {"batched": {"prng_s": prng, "sampling_s": batched},
            "solo": {"prng_s": prng, "sampling_s": solo}}


async def _drive(spec: LoadSpec, batching: bool) -> Dict:
    """Run one arm: wave-structured submissions against one service."""
    config = ServeConfig(max_queue_depth=spec.max_queue_depth,
                         batch_window_s=spec.window_s,
                         max_batch=spec.max_batch, batching=batching,
                         default_deadline_s=spec.deadline_s,
                         backend=spec.backend)
    ref = spec.matrix_ref()
    errors = 0
    t0 = time.perf_counter()
    async with LowRankService(config) as svc:
        for w in range(spec.warmup_waves):
            warm = [DecompRequest(matrix=ref, rank=spec.rank_max,
                                  oversampling=spec.oversampling,
                                  seed=1_000_000 + w * spec.concurrency
                                  + j)
                    for j in range(spec.concurrency)]
            await asyncio.gather(*(svc.submit(r) for r in warm),
                                 return_exceptions=True)
        svc.counters.reset()
        t0 = time.perf_counter()
        i = 0
        for wave in spec.waves():
            requests = [
                DecompRequest(matrix=ref, rank=rank,
                              oversampling=spec.oversampling,
                              seed=i + j)
                for j, rank in enumerate(wave)]
            i += len(wave)
            outcomes = await asyncio.gather(
                *(svc.submit(r) for r in requests),
                return_exceptions=True)
            errors += sum(isinstance(o, BaseException) for o in outcomes)
        summary = svc.counters.summary()
    summary["wall_s"] = time.perf_counter() - t0
    summary["errors"] = errors
    return summary


def _median_rep(reps: List[Dict]) -> Dict:
    """The repetition with the median p99 (upper median on ties)."""
    ordered = sorted(reps, key=lambda s: s.get("latency_p99_s", 0.0))
    return ordered[len(ordered) // 2]


def run_loadtest(spec: LoadSpec) -> LoadReport:
    """Run both arms of the loadtest and assemble the report.

    Arms alternate (batched, solo, batched, ...) for ``spec.repeats``
    rounds so slow-machine drift hits both equally; the report's
    headline numbers are each arm's median-p99 repetition.
    """
    spec.validate()
    # Pay matrix generation before timing either arm.
    spec.matrix_ref().materialize()
    batched_reps: List[Dict] = []
    solo_reps: List[Dict] = []
    for _ in range(spec.repeats):
        batched_reps.append(asyncio.run(_drive(spec, batching=True)))
        solo_reps.append(asyncio.run(_drive(spec, batching=False)))
    return LoadReport(spec=spec,
                      batched=_median_rep(batched_reps),
                      solo=_median_rep(solo_reps),
                      batched_reps=batched_reps, solo_reps=solo_reps,
                      modeled=modeled_sketch_costs(spec))
