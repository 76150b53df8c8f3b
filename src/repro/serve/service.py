"""The asyncio job-queue service: admission -> window -> batch -> worker.

:class:`LowRankService` is the orchestrator tying the serve layer
together.  ``submit()`` passes the admission controller, enqueues a
job, and awaits its future under the request's deadline.  A single
batch-loop task drains the queue: the first job opens a *batch window*
(:attr:`ServeConfig.batch_window_s`, timed from that job's arrival)
during which further queued jobs are collected, the window's requests
are grouped by compatibility (:func:`repro.serve.batcher.plan_batches`),
and each plan runs on the worker thread via
:func:`repro.serve.batcher.run_jobs`.  The loop collects the next
window while the previous one runs, so the worker goes from one window
to the next without idling; at most one window is in flight, and its
plans run one at a time in FIFO order.  Deadlines are enforced at every
stage — queued, inside the window, and between the stacked GEMM and a
request's own pipeline — and every shed or expired request is a typed
:mod:`repro.errors` rejection plus a counter bump.

The math itself is synchronous NumPy.  Each plan records into its own
:class:`repro.obs.spans.SpanRecorder`, so every recorder has one
writer whatever :attr:`ServeConfig.workers` is; the service keeps the
recorders of the last :data:`RECORDED_PLANS` plans and frees older
ones, with per-request labels telling concurrent submissions apart.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import (ConfigurationError, DeadlineExceededError,
                      RequestCancelledError, ServeError,
                      ServiceClosedError)
from ..obs.spans import RecorderSink, SpanRecorder
from .admission import AdmissionController
from .batcher import BatchPlan, plan_batches, run_jobs
from .metrics import ServiceCounters
from .request import DecompRequest, ResultArtifact

__all__ = ["ServeConfig", "LowRankService", "RECORDED_PLANS"]

#: How many of the most recent plans' span recorders a service keeps
#: readable through :attr:`LowRankService.recorder`; older ones are
#: freed, so recording memory is bounded by this, not by uptime.
RECORDED_PLANS = 64


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (see ``docs/serving.md`` for the tuning guide)."""

    #: Queued-but-undispatched requests beyond which submissions shed
    #: (jobs the batch loop holds in a window not yet handed to the
    #: worker count as queued).
    max_queue_depth: int = 64
    #: Batch window: how long the batcher waits, after the first job of
    #: a cycle arrives, for more coalescible work.  The window runs
    #: while the previous batch is still on the worker, so a job that
    #: waited that long already is dispatched as soon as the worker is
    #: free.  0 disables waiting (each drain cycle still batches
    #: whatever is already queued).
    batch_window_s: float = 0.01
    #: Hard cap on requests sharing one stacked GEMM.
    max_batch: int = 32
    #: Master switch: False dispatches every request solo (the loadtest
    #: control arm).
    batching: bool = True
    #: Deadline for requests that carry none (None = unbounded).
    default_deadline_s: Optional[float] = None
    #: Worker threads running the math.
    workers: int = 1
    #: Default compute backend for requests that name none.
    backend: Optional[str] = None

    def validate(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got "
                f"{self.max_queue_depth}")
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}")
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.default_deadline_s is not None \
                and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive, got "
                f"{self.default_deadline_s}")


class _Job:
    """Queue entry: a request plus its completion future and clocks."""

    __slots__ = ("request", "future", "enqueued_t", "deadline_t",
                 "expired", "cancelled", "counted")

    def __init__(self, request: DecompRequest, future: asyncio.Future,
                 enqueued_t: float, deadline_t: Optional[float]) -> None:
        self.request = request
        self.future = future
        self.enqueued_t = enqueued_t
        self.deadline_t = deadline_t
        self.expired = False
        self.cancelled = False
        #: Set by whoever resolves the submitter, which counts the
        #: request: its own deadline or cancel in ``submit``, or the
        #: outcome ``_finish_job`` delivers.  Each request counts once.
        self.counted = False


_STOP = object()


class LowRankService:
    """Async low-rank-approximation service with continuous batching.

    Usage::

        async with LowRankService(ServeConfig()) as svc:
            art = await svc.submit(DecompRequest(matrix=ref, rank=32))

    ``submit`` resolves to a :class:`repro.serve.request.ResultArtifact`
    or raises the typed rejection (queue full, closed, deadline,
    cancelled).  :attr:`counters` aggregates service metrics.
    :attr:`recorder` is a :class:`repro.obs.spans.RecorderSink` holding
    the kernel logs of the last :data:`RECORDED_PLANS` plans, one
    recorder per plan; a plan's log lands there once the whole plan
    has returned or raised, and its span tree is built when something
    reads the sink.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.config.validate()
        self.counters = ServiceCounters()
        self.admission = AdmissionController(
            self.config.max_queue_depth, counters=self.counters,
            default_deadline_s=self.config.default_deadline_s)
        #: The span recorders of the most recent plans.
        self.recorder = RecorderSink(RECORDED_PLANS)
        # Depth is already capped upstream: AdmissionController rejects
        # beyond max_queue_depth before anything reaches this queue.
        self._queue: "asyncio.Queue" = asyncio.Queue()  # repro: noqa RS125
        #: The window the batch loop is collecting or holding until the
        #: worker is free: off the queue, not yet dispatched.
        self._held: List[_Job] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._batch_ids = itertools.count()
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "LowRankService":
        if self._started:
            raise ConfigurationError("service already started")
        self._started = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._loop_task = asyncio.get_running_loop().create_task(
            self._batch_loop())
        return self

    async def close(self) -> None:
        """Stop admitting, drain queued work, shut the worker down.

        Queued jobs, the window the loop holds and the window on the
        worker all finish before this returns.
        """
        self.admission.close()
        if self._loop_task is not None:
            await self._queue.put(_STOP)
            await self._loop_task
            self._loop_task = None
        if self._pool is not None:
            # The batch loop has already drained (awaited above), so
            # the pool is idle and wait=True returns immediately.
            self._pool.shutdown(wait=True)  # repro: noqa RS125
            self._pool = None

    async def __aenter__(self) -> "LowRankService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission --------------------------------------------------------
    async def submit(self, request: DecompRequest) -> ResultArtifact:
        """Admit ``request``, await its result under its deadline."""
        if not self._started:
            raise ServiceClosedError(
                "service not started; use 'async with LowRankService()'",
                request_id=request.request_id)
        self.admission.admit(request, self._depth())
        self.counters.note_submitted()
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        deadline_s = self.admission.effective_deadline_s(request)
        job = _Job(request, loop.create_future(), enqueued_t=now,
                   deadline_t=None if deadline_s is None
                   else now + deadline_s)
        await self._queue.put(job)
        self.counters.note_depth(self._depth())
        try:
            if job.deadline_t is None:
                return await job.future
            timeout = max(0.0, job.deadline_t - time.monotonic())
            return await asyncio.wait_for(
                asyncio.shield(job.future), timeout)
        except asyncio.TimeoutError:
            if job.counted:
                # The outcome landed in the timer's own loop turn and is
                # already counted: deliver it.
                return await job.future
            job.expired = job.counted = True
            self.counters.note_rejected("deadline")
            raise DeadlineExceededError(
                f"request {request.request_id} missed its "
                f"{deadline_s:g}s deadline",
                request_id=request.request_id,
                waited_s=time.monotonic() - job.enqueued_t) from None
        except asyncio.CancelledError:
            job.cancelled = True
            job.future.cancel()
            if not job.counted:
                job.counted = True
                self.counters.note_rejected("cancelled")
            raise

    # -- batch loop --------------------------------------------------------
    def _depth(self) -> int:
        """Queued-but-undispatched jobs: the queue plus the held window."""
        return self._queue.qsize() + len(self._held)

    async def _collect_window(self, first: _Job) -> List[_Job]:
        """The batch window: gather coalescible work behind ``first``.

        The window closes ``batch_window_s`` after ``first`` arrived,
        not after the loop picked it up, so time spent queued behind a
        running batch counts toward it.
        """
        self._held = jobs = [first]
        if not self.config.batching:
            return jobs
        deadline = first.enqueued_t + self.config.batch_window_s
        while len(jobs) < self.config.max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    job = self._queue.get_nowait()
                else:
                    job = await asyncio.wait_for(self._queue.get(),
                                                 remaining)
            except (asyncio.TimeoutError, asyncio.QueueEmpty):
                break
            if job is _STOP:
                # Put the sentinel back for the outer loop.
                self._queue.put_nowait(_STOP)
                break
            jobs.append(job)
        return jobs

    def _skip_verdict(self, jobs_by_id: Dict[str, _Job]):
        """The cancellation points run_jobs consults (worker thread)."""
        def verdict(req: DecompRequest) -> Optional[ServeError]:
            job = jobs_by_id[req.request_id]
            if job.cancelled or job.future.cancelled():
                job.cancelled = True
                return RequestCancelledError(
                    f"request {req.request_id} was cancelled",
                    request_id=req.request_id)
            if job.expired:
                return DeadlineExceededError(
                    f"request {req.request_id} expired in the queue",
                    request_id=req.request_id)
            if job.deadline_t is not None \
                    and time.monotonic() > job.deadline_t:
                job.expired = True
                return DeadlineExceededError(
                    f"request {req.request_id} expired before dispatch",
                    request_id=req.request_id)
            return None
        return verdict

    def _finish_job(self, job: _Job, outcome, batch: Optional[Dict],
                    noted_batches: set) -> None:
        """Resolve one job's future (event-loop thread).

        ``batch`` is the batch the rider rode (None if it never reached
        one); each batch is noted once, whatever its riders' outcomes.
        The request is counted here (completed, failed, or rejected by
        a skip verdict) unless its submitter already gave up and
        counted it.
        """
        if batch is not None and batch["batch_id"] not in noted_batches:
            noted_batches.add(batch["batch_id"])
            self.counters.note_batch(batch["size"])
        if job.future.done():
            return
        if outcome is None:
            job.future.cancel()  # the submitter counts the cancel
            return
        count = not job.counted
        job.counted = True
        if isinstance(outcome, ResultArtifact):
            latency = time.monotonic() - job.enqueued_t
            outcome.service_latency_s = latency
            outcome.queue_wait_s = max(0.0, latency - outcome.wall_run_s)
            if count:
                self.counters.note_completed(latency, outcome.queue_wait_s)
            job.future.set_result(outcome)
            return
        if count:
            if isinstance(outcome, ServeError):
                self.counters.note_rejected(outcome.reason)
            else:
                self.counters.note_failed()
        job.future.set_exception(outcome)
        # The submitter may already be gone (expired deadline): mark the
        # exception retrieved so the event loop does not warn about it.
        job.future.add_done_callback(
            lambda f: f.cancelled() or f.exception())

    async def _dispatch(self, plan: BatchPlan,
                        jobs_by_id: Dict[str, _Job]) -> None:
        loop = asyncio.get_running_loop()
        noted_batches: set = set()
        # The plan's own recorder, continuing the previous plan's
        # modeled clock: plans run one at a time.
        recorder = SpanRecorder(clock=self.recorder.clock)

        def on_result(request_id: str, outcome,
                      batch: Optional[Dict]) -> None:
            # Worker thread -> event loop: complete each rider the
            # moment its own pipeline finishes, not when the whole
            # batch does.
            loop.call_soon_threadsafe(
                self._finish_job, jobs_by_id[request_id], outcome, batch,
                noted_batches)

        try:
            results = await loop.run_in_executor(
                self._pool,
                lambda: run_jobs(plan, recorder=recorder,
                                 default_backend=self.config.backend,
                                 skip=self._skip_verdict(jobs_by_id),
                                 on_result=on_result))
        except Exception as exc:
            # Raised outside every rider's own pipeline (materializing
            # A, the Omega draws, the stacked GEMM): it is the outcome
            # of each rider still waiting, and the loop keeps serving.
            results = dict.fromkeys(
                (req.request_id for req in plan.requests), exc)
        self.recorder.add(recorder)
        # Safety net: anything the callbacks missed resolves here.
        for req in plan.requests:
            job = jobs_by_id[req.request_id]
            if not job.future.done():
                self._finish_job(job, results.get(req.request_id), None,
                                 noted_batches)

    async def _batch_loop(self) -> None:
        running: Optional[asyncio.Task] = None
        while True:
            job = await self._queue.get()
            if job is _STOP:
                break
            jobs = await self._collect_window(job)
            self.counters.note_depth(self._depth())
            # One window on the worker at a time keeps plans FIFO.
            if running is not None:
                await running
            self._held = []
            running = asyncio.get_running_loop().create_task(
                self._run_window(jobs))
        if running is not None:
            await running

    async def _run_window(self, jobs: List[_Job]) -> None:
        """Plan one window and run its plans on the worker, in order."""
        live = [j for j in jobs if not j.cancelled]
        if self.config.batching:
            plans = plan_batches(
                [j.request for j in live],
                max_batch=self.config.max_batch,
                prefix=f"batch-{next(self._batch_ids)}")
        else:
            plans = [
                BatchPlan([j.request], key=j.request.batch_key,
                          batch_id=f"solo-{next(self._batch_ids)}")
                for j in live]
        jobs_by_id = {j.request.request_id: j for j in jobs}
        for plan in plans:
            await self._dispatch(plan, jobs_by_id)
        for j in jobs:
            if j.cancelled and not j.future.done():
                j.future.cancel()
