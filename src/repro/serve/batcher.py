"""Continuous batching: plan compatibility groups, run coalesced math.

The paper's central observation — random sampling turns low-rank
approximation into a few large GEMMs that run at near-peak GPU
throughput — cuts the other way for a *service*: many small concurrent
sketch requests each pay a kernel dispatch and a pass over ``A`` that
one big GEMM would amortize.  The batcher therefore stacks the
Gaussian sampling operators of compatible queued requests::

    [Omega_1]           [B_1]
    [Omega_2]  @  A  =  [B_2]      one GEMM, row-block outputs
    [  ...  ]           [...]

and feeds each request its ``B_i`` slice through
``random_sampling(..., presampled=B_i)``.  Each ``Omega_i`` is drawn
from the request's *own* seeded executor PRNG (exactly as a solo run
would draw it), and the stacked sketch runs through
:meth:`repro.gpu.device.NumpyExecutor.sample_gemm_stacked` — one
modeled device launch whose row blocks are, by that primitive's
contract, bitwise the blocks' own products — so the coalesced results
are bit-identical to solo runs.  The parity tests in
``tests/test_serve.py`` assert this at the numpy-equality level.

:func:`plan_batches` is pure planning (no math, trivially testable);
:func:`run_jobs` is the synchronous execution of one plan, called by
:class:`repro.serve.service.LowRankService` on its worker thread.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.adaptive import adaptive_sampling
from ..core.random_sampling import random_sampling
from ..errors import ConfigurationError, ServeError
from ..gpu.device import GPUExecutor, shape_of
from ..obs.spans import SpanRecorder
from .request import DecompRequest, ResultArtifact

__all__ = ["BatchPlan", "plan_batches", "run_jobs"]

#: run_jobs returns this per request: a ResultArtifact on success, a
#: ServeError (deadline/cancel skip) or arbitrary exception otherwise.
Outcome = object


@dataclass
class BatchPlan:
    """One dispatch unit: requests that run together on the worker."""

    requests: List[DecompRequest]
    #: The shared ``DecompRequest.batch_key`` — ``None`` marks an
    #: unbatchable singleton.
    key: Optional[Tuple] = None
    batch_id: str = "batch-0000"

    def __post_init__(self) -> None:
        if not self.requests:
            raise ConfigurationError("a batch plan needs >= 1 request")
        for req in self.requests:
            if req.batch_key != self.key:
                raise ConfigurationError(
                    f"request {req.request_id} (key {req.batch_key!r}) "
                    f"does not belong in plan {self.batch_id} "
                    f"(key {self.key!r})")

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def coalesced(self) -> bool:
        """True when the plan shares one stacked sketch GEMM."""
        return self.key is not None and len(self.requests) > 1


def plan_batches(requests: List[DecompRequest],
                 max_batch: Optional[int] = None,
                 prefix: str = "batch") -> List[BatchPlan]:
    """Group a window's requests into dispatch plans.

    Requests with equal non-``None`` ``batch_key`` coalesce (in
    first-seen key order, submission order within a key, chunked at
    ``max_batch``); unbatchable requests each get a singleton plan in
    their original position relative to their key group.
    """
    if max_batch is not None and max_batch < 1:
        raise ConfigurationError(
            f"max_batch must be >= 1, got {max_batch}")
    groups: List[Tuple[Optional[Tuple], List[DecompRequest]]] = []
    index: Dict[Tuple, List[DecompRequest]] = {}
    for req in requests:
        key = req.batch_key
        if key is None:
            groups.append((None, [req]))
            continue
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = []
            groups.append((key, bucket))
        bucket.append(req)
    plans: List[BatchPlan] = []
    for key, bucket in groups:
        step = max_batch if (max_batch and key is not None) else \
            len(bucket)
        for lo in range(0, len(bucket), max(1, step)):
            chunk = bucket[lo:lo + max(1, step)]
            plans.append(BatchPlan(requests=chunk, key=key,
                                   batch_id=f"{prefix}-{len(plans):04d}"))
    return plans


def _labelled(recorder: Optional[SpanRecorder], *labels: str):
    return recorder.labelled(*labels) if recorder is not None \
        else nullcontext()


def _run_span(recorder: Optional[SpanRecorder], name: str):
    return recorder.run_span(name) if recorder is not None \
        else nullcontext()


def _make_executor(req: DecompRequest, recorder: Optional[SpanRecorder],
                   default_backend: Optional[str]) -> GPUExecutor:
    ex = GPUExecutor(seed=req.seed,
                     backend=req.backend or default_backend)
    if recorder is not None:
        ex.attach_recorder(recorder)
    return ex


def _batch(plan: BatchPlan, stacked: int, coalesced: bool) -> Dict:
    """What a rider of ``plan`` reports about the batch it rode."""
    return {"batch_id": plan.batch_id, "size": stacked,
            "coalesced": coalesced}


def _finish(req: DecompRequest, artifact: ResultArtifact,
            batch: Dict) -> ResultArtifact:
    artifact.batch = dict(batch)
    artifact.spans = {"run": req.request_id,
                      "labels": [req.request_id],
                      "batch_run": (batch["batch_id"] if batch["coalesced"]
                                    else None)}
    artifact.backend = req.backend
    return artifact


def _run_solo(req: DecompRequest, a: np.ndarray,
              recorder: Optional[SpanRecorder],
              default_backend: Optional[str]) -> ResultArtifact:
    """One request, the ordinary (uncoalesced) pipelines."""
    ex = _make_executor(req, recorder, default_backend)
    t0 = time.perf_counter()
    with _labelled(recorder, req.request_id), \
            _run_span(recorder, req.request_id):
        if req.algorithm == "fixed_rank":
            factors = random_sampling(a, req.sampling_config(),
                                      executor=ex, check_finite=False)
            wall = time.perf_counter() - t0
            return ResultArtifact(
                request_id=req.request_id, algorithm=req.algorithm,
                factors={"q_shape": list(shape_of(factors.q)),
                         "r_shape": list(shape_of(factors.r)),
                         "rank": factors.k,
                         "sample_size": factors.sample_size},
                modeled_seconds=factors.seconds,
                breakdown=dict(factors.breakdown),
                wall_run_s=wall, payload=factors)
        if req.algorithm == "adaptive":
            result = adaptive_sampling(a, req.adaptive_config(),
                                       executor=ex, check_finite=False)
            wall = time.perf_counter() - t0
            return ResultArtifact(
                request_id=req.request_id, algorithm=req.algorithm,
                factors={"subspace_size": result.subspace_size,
                         "converged": result.converged,
                         "steps": len(result.steps)},
                modeled_seconds=result.seconds,
                breakdown={}, wall_run_s=wall, payload=result)
        # cholqr: plain tall-skinny factorization of the full matrix.
        ex.bind(a)
        q, r = ex.qr_selected(a, scheme="cholqr2")
        wall = time.perf_counter() - t0
        return ResultArtifact(
            request_id=req.request_id, algorithm=req.algorithm,
            factors={"q_shape": list(shape_of(q)),
                     "r_shape": list(shape_of(r))},
            modeled_seconds=ex.seconds,
            breakdown=dict(ex.timeline.breakdown()),
            wall_run_s=wall, payload=(q, r))


def run_jobs(plan: BatchPlan,
             recorder: Optional[SpanRecorder] = None,
             default_backend: Optional[str] = None,
             skip: Optional[Callable[[DecompRequest],
                                     Optional[ServeError]]] = None,
             on_result: Optional[Callable[[str, Outcome, Optional[Dict]],
                                          None]] = None
             ) -> Dict[str, Outcome]:
    """Execute one plan synchronously; map request id -> outcome.

    ``recorder`` logs every kernel of the plan: each request's pipeline
    under a run span named by its request id, and a coalesced plan's
    shared draws and stacked GEMM under a run span named by its batch
    id.  It is written from the calling thread only, so the service
    passes a fresh one per plan; None records nothing.

    ``skip`` is consulted at the two cancellation points — before the
    stacked GEMM (request never enters the batch) and again before each
    request's Steps 2-3 (mid-batch cancellation: its Omega block rode
    the GEMM, its pipeline never runs).  A skip outcome is the
    ServeError the service will surface; any exception a request's math
    raises is captured as that request's outcome without poisoning its
    batch-mates.  An exception in the part the riders share —
    materializing ``A``, the Omega draws, the stacked GEMM — propagates
    to the caller; the service fails every rider still waiting with it.

    ``on_result`` fires the moment each request's outcome is known
    (still on the worker thread) — the service bridges it back to the
    event loop so early riders of a batch complete without waiting for
    their batch-mates' Steps 2-3.  Its third argument describes the
    batch the request rode (the ``ResultArtifact.batch`` dict, whatever
    the outcome), or is None for a request skipped before its batch ran.
    """
    results: Dict[str, Outcome] = {}

    def emit(request_id: str, outcome: Outcome,
             batch: Optional[Dict] = None) -> None:
        results[request_id] = outcome
        if on_result is not None:
            on_result(request_id, outcome, batch)

    live: List[DecompRequest] = []
    for req in plan.requests:
        verdict = skip(req) if skip is not None else None
        if verdict is not None:
            emit(req.request_id, verdict)
        else:
            live.append(req)
    if not live:
        return results
    a = live[0].matrix.materialize()

    if not (plan.key is not None and len(live) > 1):
        batch = _batch(plan, stacked=1, coalesced=False)
        for req in live:
            matrix = a if req.matrix == live[0].matrix else \
                req.matrix.materialize()
            try:
                artifact = _run_solo(req, matrix, recorder,
                                     default_backend)
            except ServeError as exc:
                emit(req.request_id, exc, batch)
                continue
            except Exception as exc:  # surface per request, keep going
                emit(req.request_id, exc, batch)
                continue
            emit(req.request_id, _finish(req, artifact, batch), batch)
        return results

    # --- coalesced fixed-rank path --------------------------------------
    m = shape_of(a)[0]
    walls = {req.request_id: time.perf_counter() for req in live}
    executors: Dict[str, GPUExecutor] = {}
    omegas: List[np.ndarray] = []
    with _run_span(recorder, plan.batch_id):
        # Each request draws its Omega from its own seeded PRNG, on its
        # own executor — the exact draw its solo run would make.
        for req in live:
            ex = _make_executor(req, recorder, default_backend)
            executors[req.request_id] = ex
            with _labelled(recorder, req.request_id):
                omegas.append(ex.prng_gaussian(req.sample_size, m))
        # One stacked sketch GEMM covers every rider (the device
        # charges a single (sum l) x n launch; the host reference
        # computes each row block per rider so slices stay bitwise
        # equal to solo runs — see GPUExecutor.sample_gemm_stacked).
        batch_ex = _make_executor(live[0], recorder, default_backend)
        batch_ex.bind(a)
        with _labelled(recorder, *[r.request_id for r in live]):
            b_blocks = batch_ex.sample_gemm_stacked(omegas, a)
    gemm_seconds = batch_ex.seconds
    total_l = sum(req.sample_size for req in live)
    batch = _batch(plan, stacked=len(live), coalesced=True)

    for req, b_slice in zip(live, b_blocks):
        l = req.sample_size
        verdict = skip(req) if skip is not None else None
        if verdict is not None:
            # Cancelled mid-batch: Omega rode the GEMM, the pipeline is
            # skipped.
            emit(req.request_id, verdict, batch)
            continue
        share = gemm_seconds * (l / total_l)
        ex = executors[req.request_id]
        try:
            with _labelled(recorder, req.request_id), \
                    _run_span(recorder, req.request_id):
                factors = random_sampling(a, req.sampling_config(),
                                          executor=ex, check_finite=False,
                                          presampled=b_slice)
        except Exception as exc:
            emit(req.request_id, exc, batch)
            continue
        breakdown = dict(factors.breakdown)
        breakdown["sampling"] = breakdown.get("sampling", 0.0) + share
        artifact = ResultArtifact(
            request_id=req.request_id, algorithm=req.algorithm,
            factors={"q_shape": list(shape_of(factors.q)),
                     "r_shape": list(shape_of(factors.r)),
                     "rank": factors.k,
                     "sample_size": factors.sample_size},
            modeled_seconds=factors.seconds + share,
            breakdown=breakdown,
            wall_run_s=time.perf_counter() - walls[req.request_id],
            payload=factors)
        emit(req.request_id, _finish(req, artifact, batch), batch)
    return results
