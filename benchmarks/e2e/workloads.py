"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`setup`, timed as
set-up), runs a fixed number of operations through the public API of
``repro`` and checks every result outside the timed region.  The seed
drives matrix seeds, sampling seeds, rank jitter and arrival times; the
program only ever sees the generated inputs.

Checks return a list of problems (empty = correct).  An op fails when it
raises, is rejected, fails a check, or - for the two workloads pinned to
the committed modeled-clock reference - reports modeled seconds that
differ from it in any bit.

Every workload class sets ``ops_per_second`` (measured ops per second of
``--seconds``; phase-A requests for serve), ``warmup`` (unmeasured ops
before them) and ``smoke`` (warmup and ops at ``--scale smoke``).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.bench import harness
from repro.config import AdaptiveConfig, SamplingConfig
from repro.gpu.device import GPUExecutor
from repro.matrices import registry
from repro.serve.request import DecompRequest, MatrixRef
from repro.serve.service import LowRankService, ServeConfig

from stats import percentile

__all__ = ["REFERENCE", "WORKLOADS", "SERVE_LAYERS", "Outcome",
           "FixedRankReal", "PaperSweepSymbolic", "ServeOpenLoop",
           "AdaptiveExponent", "check_fixed_rank", "check_sweep",
           "check_adaptive", "check_served", "check_served_accuracy",
           "check_modeled", "closed_loop", "block_rate", "load_reference",
           "op_seeds", "paper_grid", "spectral_error_within",
           "write_reference"]

REFERENCE = Path(__file__).resolve().parent / "reference" / "modeled.json"


@dataclass
class Outcome:
    """What one workload run measured and how its checks went."""

    #: Per-op latencies of the measured region, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Closed-loop rate, ops per second.
    throughput: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: The first few failure messages.
    problems: List[str] = field(default_factory=list)
    #: Per-layer values the workload measures itself (serve counters).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Extra numbers for the report (sample counts, limits, ...).
    details: Dict[str, object] = field(default_factory=dict)
    working_set_bytes: int = 0

    def note(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def _raised(exc: Exception) -> List[str]:
    return [f"{type(exc).__name__}: {exc}"]


def load_reference() -> Dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def op_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def check_modeled(seconds: float, breakdown: Dict[str, float],
                  ref: Dict) -> List[str]:
    """Exact equality with the committed modeled-clock reference."""
    problems = []
    if seconds != ref["seconds"]:
        problems.append(f"modeled seconds {seconds!r} != reference "
                        f"{ref['seconds']!r}")
    if dict(breakdown) != ref["breakdown"]:
        problems.append(f"modeled breakdown {dict(breakdown)} != "
                        f"reference {ref['breakdown']}")
    return problems


def spectral_error_within(resid: np.ndarray, tol: float) -> bool:
    """``||resid||_2 <= tol``.  The Frobenius norm bounds the spectral
    norm from above and is far cheaper, so the SVD runs only when the
    bound is not enough."""
    if np.linalg.norm(resid) <= tol:
        return True
    return float(np.linalg.norm(resid, ord=2)) <= tol


def block_rate(latencies: List[float], blocks: int = 10) -> float:
    """Ops per second of back-to-back ops: the median over consecutive
    blocks of the run, so one slow stretch of the machine does not set
    the number."""
    size = max(1, len(latencies) // blocks)
    rates = [len(b) / sum(b) for b in
             (latencies[i:i + size] for i in range(0, len(latencies), size))
             if len(b) == size]
    return statistics.median(rates)


def closed_loop(op, check, seeds: List[int], warmup: int, tracer,
                outcome: Outcome) -> None:
    """Run ``op`` back to back; only the op itself is timed."""
    for i, s in enumerate(seeds):
        if i == warmup:
            tracer.reset()
        tracer.set_op(i)
        t0 = time.perf_counter()
        try:
            out = op(s)
        except Exception as exc:  # counted as a failed op, run goes on
            out = exc
        dt = time.perf_counter() - t0
        tracer.set_op(None)
        outcome.note(f"op {i}", _raised(out) if isinstance(out, Exception)
                     else check(i, out))
        if i >= warmup:
            outcome.latencies.append(dt)
    outcome.throughput = block_rate(outcome.latencies)


# ----------------------------------------------------------------------
# fixed_rank_real
# ----------------------------------------------------------------------
def check_fixed_rank(a: np.ndarray, f, ref: Optional[Dict],
                     residual: bool = True) -> List[str]:
    """``Q^T Q = I`` to 1e-10, ``||AP - QR||_F / ||A||_F <= 1e-3`` and,
    with ``ref``, modeled seconds equal to the reference."""
    problems = []
    q = np.asarray(f.q)
    k = q.shape[1]
    orth = float(np.linalg.norm(q.T @ q - np.eye(k)))
    if not orth <= 1e-10:
        problems.append(f"||Q^T Q - I|| = {orth:.3e} > 1e-10")
    if residual:
        rel = float(np.linalg.norm(a[:, f.perm] - q @ np.asarray(f.r))
                    / np.linalg.norm(a))
        if not rel <= 1e-3:
            problems.append(f"||AP - QR||_F/||A||_F = {rel:.3e} > 1e-3")
    if ref is not None:
        problems += check_modeled(f.seconds, f.breakdown, ref)
    return problems


class FixedRankReal:
    """Fixed-rank sampling on real data: backend kernels dominate."""

    name = "fixed_rank_real"
    ops_per_second, warmup, smoke = 13.0, 10, (1, 5)
    m, n, rank, p, q = 8000, 500, 50, 10, 1
    #: The residual costs half an op, so it is checked on every 5th.
    residual_every = 5

    def setup(self, seed: int) -> Dict:
        return {"a": registry.get_matrix("power", m=self.m, n=self.n,
                                         seed=seed)}

    def op(self, a: np.ndarray, s: int):
        cfg = SamplingConfig(rank=self.rank, oversampling=self.p,
                             power_iterations=self.q, seed=s,
                             backend="numpy")
        return repro.random_sampling(
            a, cfg, executor=GPUExecutor(seed=s, backend="numpy"))

    def run(self, inputs: Dict, seed: int, warmup: int, ops: int,
            tracer) -> Outcome:
        a = inputs["a"]
        ref = load_reference()[self.name]
        out = Outcome(working_set_bytes=a.nbytes + 8 * (
            (self.rank + self.p) * (self.m + self.n) + self.m * self.rank))
        closed_loop(lambda s: self.op(a, s),
                    lambda i, f: check_fixed_rank(
                        a, f, ref, residual=i % self.residual_every == 0),
                    op_seeds(seed, warmup + ops), warmup, tracer, out)
        return out

    def reference(self) -> Dict:
        a = self.setup(0)["a"]
        runs = [self.op(a, s) for s in (0, 1, 2)]
        first = {"seconds": runs[0].seconds,
                 "breakdown": dict(runs[0].breakdown)}
        for f in runs[1:]:
            if check_modeled(f.seconds, f.breakdown, first):
                raise SystemExit("modeled seconds depend on the seed; "
                                 "no reference written")
        return first


# ----------------------------------------------------------------------
# paper_sweep_symbolic
# ----------------------------------------------------------------------
_MS = (2_500, 5_000, 10_000, 20_000, 30_000, 40_000, 50_000)
_NS = (500, 1_000, 2_000, 3_000, 4_000, 5_000)
_LS = (32, 64, 128, 192, 256, 320, 384, 448, 512)
_QS = (0, 2, 4, 6, 8, 10, 12)


def paper_grid() -> Dict[str, Dict]:
    """The 77 points of Figures 11-15, keyed by a readable name."""
    base = {"m": 50_000, "n": 2_500, "k": 54, "p": 10, "q": 1}
    grid = {}
    for m in _MS:
        grid[f"fig11 m={m}"] = {**base, "m": m}
    for n in _NS:
        grid[f"fig12 n={n}"] = {**base, "n": n}
    for l in _LS:
        grid[f"fig13 l={l}"] = {**base, "k": l - 10}
    for q in _QS:
        for m in _MS:
            grid[f"fig14 q={q} m={m}"] = {**base, "m": m, "q": q}
    for overlap in (True, False):
        for ng in (1, 2, 3):
            grid[f"fig15 ng={ng} overlap={'on' if overlap else 'off'}"] = {
                **base, "m": 150_000, "ng": ng, "overlap": overlap}
    return grid


def check_sweep(results: Dict, ref: Dict) -> List[str]:
    problems = []
    for key, t in results.items():
        problems += [f"{key}: {p}" for p in
                     check_modeled(t.total, t.breakdown, ref[key])]
    if set(results) != set(ref):
        problems.append("grid differs from the reference")
    return problems


class PaperSweepSymbolic:
    """The Figure 11-15 grid on shape-only arrays: no real math, so the
    wall time is the framework's own accounting."""

    name = "paper_sweep_symbolic"
    ops_per_second, warmup, smoke = 30.0, 20, (1, 3)

    def setup(self, seed: int) -> Dict:
        return {"grid": paper_grid()}

    def one_pass(self, grid: Dict, order: List[str], s: int) -> Dict:
        return {key: harness.timed_fixed_rank(**grid[key], seed=s)
                for key in order}

    def run(self, inputs: Dict, seed: int, warmup: int, ops: int,
            tracer) -> Outcome:
        grid = inputs["grid"]
        ref = load_reference()[self.name]
        rng = random.Random(seed)
        orders = []
        for _ in range(warmup + ops):
            order = list(grid)
            rng.shuffle(order)
            orders.append(order)
        out = Outcome(working_set_bytes=0)
        closed_loop(lambda i: self.one_pass(grid, orders[i], i),
                    lambda i, res: check_sweep(res, ref),
                    list(range(warmup + ops)), warmup, tracer, out)
        return out

    def reference(self) -> Dict:
        grid = paper_grid()
        return {key: {"seconds": t.total, "breakdown": dict(t.breakdown)}
                for key, t in self.one_pass(grid, list(grid), 0).items()}


# ----------------------------------------------------------------------
# adaptive_exponent
# ----------------------------------------------------------------------
def check_adaptive(a: np.ndarray, res, tol: float,
                   true_error: bool) -> List[str]:
    problems = []
    if not res.converged:
        problems.append("did not converge")
    if true_error:
        b = np.asarray(res.basis)
        if not spectral_error_within(a - (a @ b.T) @ b, tol):
            problems.append(f"true ||A - A B^T B||_2 > {tol:g}")
    return problems


class AdaptiveExponent:
    """The fixed-accuracy scheme of Figures 16/17: many small calls
    into the same backend and QR layers."""

    name = "adaptive_exponent"
    ops_per_second, warmup, smoke = 20.0, 10, (1, 10)
    m, n, tol = 5000, 500, 1e-10
    true_error_every = 10

    def setup(self, seed: int) -> Dict:
        return {"a": registry.get_matrix("exponent", m=self.m, n=self.n,
                                         seed=seed)}

    def run(self, inputs: Dict, seed: int, warmup: int, ops: int,
            tracer) -> Outcome:
        a = inputs["a"]
        out = Outcome(working_set_bytes=a.nbytes + 8 * self.n * self.n)

        def op(s: int):
            return repro.adaptive_sampling(a, AdaptiveConfig(
                tolerance=self.tol, l_init=8, l_inc=16, seed=s,
                backend="numpy"))
        closed_loop(op, lambda i, r: check_adaptive(
                        a, r, self.tol, i % self.true_error_every == 0),
                    op_seeds(seed, warmup + ops), warmup, tracer, out)
        return out


# ----------------------------------------------------------------------
# serve_open_loop
# ----------------------------------------------------------------------
def check_served(req: DecompRequest, art) -> List[str]:
    f = art.factors
    if req.algorithm == "adaptive":
        return [] if f.get("converged") and f.get("subspace_size", 0) >= 1 \
            else [f"adaptive result {f}"]
    want_q, want_r = [req.matrix.m, req.rank], [req.rank, req.matrix.n]
    if f.get("q_shape") != want_q or f.get("r_shape") != want_r:
        return [f"factor shapes {f.get('q_shape')}/{f.get('r_shape')}, "
                f"expected {want_q}/{want_r}"]
    return []


def check_served_accuracy(a: np.ndarray, sigma: np.ndarray,
                          req: DecompRequest, payload) -> List[str]:
    """Fixed rank: within 10x of the optimal rank-k Frobenius error.
    Adaptive: the true spectral error meets the tolerance."""
    if req.algorithm == "adaptive":
        b = np.asarray(payload.basis)
        ok = spectral_error_within(a - (a @ b.T) @ b, req.tolerance)
        return [] if ok else [f"true error above {req.tolerance:g}"]
    err = float(np.linalg.norm(a[:, payload.perm]
                               - np.asarray(payload.q) @ np.asarray(payload.r)))
    best = float(np.sqrt(np.sum(sigma[req.rank:] ** 2)))
    return [] if err <= 10.0 * best else \
        [f"rank-{req.rank} error {err:.3e} > 10 x optimal {best:.3e}"]


class ServeOpenLoop:
    """``LowRankService`` under an open-loop Poisson load, then a
    closed-loop saturation phase."""

    name = "serve_open_loop"
    # 1000 phase-A requests at --seconds 16: p99 keeps 10 samples beyond.
    ops_per_second, warmup, smoke = 62.5, 64, (8, 20)
    m, n = 3000, 640
    rate = 30.0            # phase A arrivals per second
    phase_b_share = 0.6    # phase B requests per phase A request
    clients = 16           # phase B and warmup concurrency
    latency_limit_ms = 100.0
    keep_every = 20

    def setup(self, seed: int) -> Dict:
        ref = MatrixRef(name="power", m=self.m, n=self.n, seed=seed)
        return {"ref": ref, "a": ref.materialize()}

    def requests(self, ref: MatrixRef, rng: random.Random, prefix: str,
                 count: int) -> List[DecompRequest]:
        """80 % batchable fixed-rank (ranks 8-32), 20 % adaptive.

        The mix and the ranks are stratified - every seed gets exactly
        the same multiset in a different order - so seeds vary the
        arrival pattern, not the amount of work."""
        n_adaptive = round(0.2 * count)
        ranks = [None] * n_adaptive + [8 + j % 25
                                       for j in range(count - n_adaptive)]
        rng.shuffle(ranks)
        reqs = []
        for i, rank in enumerate(ranks):
            rid = f"{prefix}-{i:05d}"
            if rank is None:
                reqs.append(DecompRequest(
                    matrix=ref, algorithm="adaptive", tolerance=1e-3,
                    seed=rng.randrange(2 ** 31), request_id=rid))
            else:
                reqs.append(DecompRequest(
                    matrix=ref, rank=rank, seed=rng.randrange(2 ** 31),
                    request_id=rid))
        return reqs

    def gaps(self, rng: random.Random, count: int) -> List[float]:
        """Exponential inter-arrival gaps at :attr:`rate`: the ``count``
        quantiles of the distribution in a seeded random order, so the
        run length is the same for every seed."""
        gaps = [-math.log(1.0 - (j + 0.5) / count) / self.rate
                for j in range(count)]
        rng.shuffle(gaps)
        return gaps

    def run(self, inputs: Dict, seed: int, warmup: int, ops: int,
            tracer) -> Outcome:
        """``ops`` open-loop requests (phase A), then
        ``phase_b_share * ops`` closed-loop ones (phase B)."""
        a = inputs["a"]
        out = Outcome(working_set_bytes=2 * a.nbytes)
        sigma = np.linalg.svd(a, compute_uv=False)
        kept = asyncio.run(self._drive(inputs["ref"], seed, warmup, ops,
                                       tracer, out))
        # Every keep_every-th request held its payload until now.
        for req, payload in kept:
            out.note(req.request_id,
                     check_served_accuracy(a, sigma, req, payload))
        return out

    async def _drive(self, ref: MatrixRef, seed: int, warmup: int,
                     ops: int, tracer, out: Outcome) -> List:
        rng = random.Random(seed)
        warm = self.requests(ref, rng, "warm", warmup)
        phase_a = self.requests(ref, rng, "a", ops)
        gaps = self.gaps(rng, ops)
        phase_b = self.requests(ref, rng, "b",
                                max(1, round(self.phase_b_share * ops)))
        kept, waits = [], []
        config = ServeConfig(max_queue_depth=4096, batch_window_s=0.005,
                             max_batch=32, workers=1, backend="numpy")

        async with LowRankService(config) as svc:
            async def one(index: int, req: DecompRequest, due: float):
                sent = time.perf_counter()
                try:
                    art = await svc.submit(req)
                except Exception as exc:  # rejections count as failures
                    out.note(req.request_id, _raised(exc))
                    return None
                done = time.perf_counter()
                tracer.record_span("serve.submit", "serve", sent, done,
                                   (req.request_id,))
                problems = check_served(req, art)
                if not problems and index % self.keep_every == 0:
                    kept.append((req, art.payload))
                else:
                    out.note(req.request_id, problems)
                waits.append(art.queue_wait_s)
                return done - due, sent - due

            async def closed(reqs: List[DecompRequest], first: int) -> float:
                queue = list(enumerate(reqs, first))[::-1]

                async def client():
                    while queue:
                        index, req = queue.pop()
                        await one(index, req, time.perf_counter())
                t0 = time.perf_counter()
                await asyncio.gather(*(client() for _ in range(self.clients)))
                return time.perf_counter() - t0

            await closed(warm, 0)
            svc.counters.reset()
            tracer.reset()
            waits.clear()

            # Phase A: open loop, each request timed from when it was due.
            t = time.perf_counter() + 0.01
            tasks = []
            for i, (req, gap) in enumerate(zip(phase_a, gaps)):
                t += gap
                delay = t - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(one(warmup + i, req, t)))
            timed = [r for r in await asyncio.gather(*tasks) if r is not None]
            out.latencies = [lat for lat, _ in timed]
            lags = [lag for _, lag in timed]

            # Phase B: closed loop, back-to-back clients.
            elapsed = await closed(phase_b, warmup + len(phase_a))
            out.throughput = len(phase_b) / elapsed
            counters = svc.counters
            spans = sum(1 for run in svc.recorder.runs for _ in run.walk())

        p99_ms = 1e3 * percentile(out.latencies, 99)
        out.details.update({
            "phase_a_requests": len(phase_a), "phase_a_rate_per_s": self.rate,
            "phase_b_requests": len(phase_b),
            "phase_b_clients": self.clients, "warmup_requests": len(warm),
            "latency_limit_p99_ms": self.latency_limit_ms,
            "latency_limit_met": p99_ms <= self.latency_limit_ms,
            "loadgen_lag_p99_ms": 1e3 * percentile(lags, 99)})
        out.layers = {
            "serve.queue_wait_p50_ms": 1e3 * percentile(waits, 50),
            "serve.queue_wait_p99_ms": 1e3 * percentile(waits, 99),
            "serve.batch_occupancy_mean": counters.mean_occupancy,
            "serve.coalesced_ratio": (counters.coalesced_requests
                                      / max(1, counters.completed)),
            "serve.rejected": sum(counters.rejections.values()),
            "serve.loadgen_lag_p99_ms": 1e3 * percentile(lags, 99),
            "obs.spans_retained": spans}
        return kept


WORKLOADS = {w.name: w for w in (FixedRankReal(), PaperSweepSymbolic(),
                                 ServeOpenLoop(), AdaptiveExponent())}

#: Serve-side per-layer metrics; other workloads report them as 0.
SERVE_LAYERS = ("serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
                "serve.batch_occupancy_mean", "serve.coalesced_ratio",
                "serve.rejected", "serve.loadgen_lag_p99_ms",
                "obs.spans_retained")


def write_reference(path: Path = REFERENCE) -> Dict:
    """Record the modeled clock of the two pinned workloads."""
    doc = {"fixed_rank_real": WORKLOADS["fixed_rank_real"].reference(),
           "paper_sweep_symbolic":
               WORKLOADS["paper_sweep_symbolic"].reference()}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
