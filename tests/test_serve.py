"""Tests of the serving layer: requests, admission, batching, service.

The load-bearing assertion is *bit parity*: results served from a
coalesced batch must equal (``np.array_equal``, not allclose) the
factors a solo run of the same request produces.
"""

import asyncio
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import backends
from repro.backends.numpy_backend import NumpyBackend
from repro.core.random_sampling import random_sampling
from repro.errors import (CholeskyBreakdownError, ConfigurationError,
                          DeadlineExceededError, InvalidRequestError,
                          QueueFullError, REJECTION_REASONS,
                          ServiceClosedError)
from repro.matrices.registry import (clear_matrix_cache, get_matrix,
                                     matrix_cache_info)
from repro.obs.chrome import spans_to_chrome, validate_chrome_trace
from repro.serve import (AdmissionController, BatchPlan, DecompRequest,
                         LowRankService, MatrixRef, ResultArtifact,
                         ServeConfig, ServiceCounters, percentile,
                         plan_batches, run_jobs)
from repro.obs.spans import SpanRecorder
import repro.serve.service as service_mod
from repro.serve.service import RECORDED_PLANS, _Job

REF = MatrixRef(name="power", m=400, n=96, seed=3)


def req(rank=12, **kw):
    kw.setdefault("oversampling", 6)
    return DecompRequest(matrix=REF, rank=rank, **kw)


# ----------------------------------------------------------------------
# requests and validation
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_unknown_matrix_rejected(self):
        with pytest.raises(InvalidRequestError):
            MatrixRef(name="nope", m=10, n=10)

    def test_fixed_rank_needs_rank(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF)

    def test_adaptive_needs_tolerance(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, algorithm="adaptive")

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, algorithm="qp3", rank=5)

    def test_oversized_sample_rejected(self):
        with pytest.raises(InvalidRequestError):
            DecompRequest(matrix=REF, rank=398, oversampling=10)
        # l = 130 > n = 120 is admitted only while q = 0 (the same rule
        # random_sampling applies; at q >= 1 it fails inside a batch).
        tall = MatrixRef(name="power", m=600, n=120)
        with pytest.raises(InvalidRequestError,
                           match="l = 130 exceeds n = 120"):
            DecompRequest(matrix=tall, rank=120, oversampling=10,
                          power_iterations=1)
        DecompRequest(matrix=tall, rank=120, oversampling=10)

    def test_invalid_is_also_valueerror(self):
        # The taxonomy plays nicely with generic ValueError handlers.
        with pytest.raises(ValueError):
            DecompRequest(matrix=REF, rank=0)

    def test_batch_key_compatibility(self):
        a, b = req(rank=8, seed=1), req(rank=14, seed=2)
        assert a.batch_key == b.batch_key  # ranks/seeds may differ
        assert req(sampler="fft").batch_key is None
        other = DecompRequest(matrix=MatrixRef(name="power", m=401, n=96),
                              rank=8)
        assert other.batch_key != a.batch_key
        adaptive = DecompRequest(matrix=REF, algorithm="adaptive",
                                 tolerance=1e-3)
        assert adaptive.batch_key is None

    def test_request_ids_unique(self):
        ids = {req().request_id for _ in range(50)}
        assert len(ids) == 50

    def test_artifact_to_dict_excludes_payload(self):
        art = ResultArtifact(request_id="r", algorithm="fixed_rank",
                             payload=object())
        doc = art.to_dict()
        assert "payload" not in doc
        assert doc["version"] == 1
        assert doc["timings"]["modeled_seconds"] == 0.0


class TestSharedMatrix:
    def setup_method(self):
        clear_matrix_cache()

    def teardown_method(self):
        clear_matrix_cache()

    def test_materialize_shares_one_read_only_array(self):
        a = REF.materialize()
        hits = matrix_cache_info()["hits"]
        b = REF.materialize()
        assert matrix_cache_info()["hits"] == hits + 1
        assert not a.flags.writeable and not b.flags.writeable
        assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            b.flags.writeable = True
        # The default path still hands out a private writable copy.
        c = get_matrix(REF.name, m=REF.m, n=REF.n, seed=REF.seed)
        assert matrix_cache_info()["hits"] == hits + 2
        assert c.flags.writeable and not np.shares_memory(a, c)
        assert np.array_equal(a, c)

    def test_materialize_without_cache(self, monkeypatch):
        want = get_matrix(REF.name, m=REF.m, n=REF.n, seed=REF.seed)
        clear_matrix_cache()
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "0")
        a = REF.materialize()
        assert not a.flags.writeable
        assert np.array_equal(a, want)
        assert matrix_cache_info()["entries"] == 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        assert percentile(xs, 50.0) == 50.0
        assert percentile(xs, 99.0) == 99.0
        assert percentile(xs, 100.0) == 100.0
        assert percentile(xs, 0.0) == 1.0
        assert percentile([], 99.0) == 0.0
        with pytest.raises(ConfigurationError):
            percentile(xs, 101.0)

    def test_counters_taxonomy_complete(self):
        c = ServiceCounters()
        for reason in REJECTION_REASONS:
            c.note_rejected(reason)
        assert sum(c.rejections.values()) == len(REJECTION_REASONS)
        with pytest.raises(ConfigurationError):
            c.note_rejected("martian")

    def test_counters_reset(self):
        c = ServiceCounters()
        c.note_submitted()
        c.note_batch(4)
        c.note_completed(0.5, 0.1)
        c.reset()
        assert c.submitted == 0 and c.batches == 0
        assert c.summary()["latency_p99_s"] == 0.0

    def test_occupancy(self):
        c = ServiceCounters()
        c.note_batch(1)
        c.note_batch(7)
        assert c.mean_occupancy == 4.0
        assert c.max_occupancy == 7
        assert c.coalesced_requests == 7


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_sheds(self):
        ctl = AdmissionController(capacity=2)
        ctl.admit(req(), depth=1)
        with pytest.raises(QueueFullError) as ei:
            ctl.admit(req(), depth=2)
        assert ei.value.depth == 2 and ei.value.capacity == 2
        assert ei.value.reason == "queue_full"
        assert ctl.counters.rejections["queue_full"] == 1

    def test_closed_rejects(self):
        ctl = AdmissionController(capacity=2)
        ctl.close()
        with pytest.raises(ServiceClosedError):
            ctl.admit(req(), depth=0)
        assert ctl.counters.rejections["closed"] == 1

    def test_effective_deadline_falls_back(self):
        ctl = AdmissionController(capacity=1, default_deadline_s=2.0)
        assert ctl.effective_deadline_s(req()) == 2.0
        assert ctl.effective_deadline_s(req(deadline_s=0.5)) == 0.5


# ----------------------------------------------------------------------
# batch planning
# ----------------------------------------------------------------------
class TestPlanBatches:
    def test_groups_by_compatibility(self):
        other_ref = MatrixRef(name="power", m=500, n=96, seed=3)
        r1, r2 = req(seed=1), req(seed=2)
        r3 = DecompRequest(matrix=other_ref, rank=10)
        r4 = DecompRequest(matrix=REF, algorithm="adaptive",
                           tolerance=1e-3)
        r5 = req(seed=5)
        plans = plan_batches([r1, r2, r3, r4, r5])
        sizes = [(p.size, p.coalesced) for p in plans]
        assert sizes == [(3, True), (1, False), (1, False)]
        assert [r.request_id for r in plans[0].requests] == \
            [r1.request_id, r2.request_id, r5.request_id]

    def test_max_batch_chunks(self):
        reqs = [req(seed=i) for i in range(7)]
        plans = plan_batches(reqs, max_batch=3)
        assert [p.size for p in plans] == [3, 3, 1]
        assert plans[0].coalesced and not plans[2].coalesced

    def test_mismatched_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchPlan([req()], key=None)


# ----------------------------------------------------------------------
# bit parity: coalesced == solo
# ----------------------------------------------------------------------
class TestBitParity:
    def test_run_jobs_coalesced_matches_solo(self):
        reqs = [req(rank=8 + i, seed=10 + i) for i in range(5)]
        plan = plan_batches(reqs)[0]
        assert plan.coalesced
        results = run_jobs(plan)
        a = REF.materialize()
        for r in reqs:
            art = results[r.request_id]
            assert isinstance(art, ResultArtifact)
            solo = random_sampling(a, r.sampling_config())
            assert np.array_equal(art.payload.q, solo.q)
            assert np.array_equal(art.payload.r, solo.r)
            assert np.array_equal(art.payload.perm, solo.perm)
            assert art.batch == {"batch_id": plan.batch_id, "size": 5,
                                 "coalesced": True}

    def test_service_batched_matches_solo(self):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.05, max_batch=8)
            async with LowRankService(cfg) as svc:
                reqs = [req(rank=9 + i, seed=20 + i) for i in range(4)]
                return reqs, await asyncio.gather(
                    *(svc.submit(r) for r in reqs))
        reqs, arts = asyncio.run(drive())
        assert any(a.batch["coalesced"] for a in arts)
        a = REF.materialize()
        for r, art in zip(reqs, arts):
            solo = random_sampling(a, r.sampling_config())
            assert np.array_equal(art.payload.q, solo.q)
            assert np.array_equal(art.payload.r, solo.r)

    def test_modeled_share_sums_to_batch(self):
        reqs = [req(rank=8, seed=1), req(rank=16, seed=2)]
        plan = plan_batches(reqs)[0]
        results = run_jobs(plan)
        arts = [results[r.request_id] for r in reqs]
        # Sampling shares are proportional to each rider's l.
        s0 = arts[0].breakdown["sampling"]
        s1 = arts[1].breakdown["sampling"]
        l0, l1 = reqs[0].sample_size, reqs[1].sample_size
        assert s0 > 0 and s1 > 0
        assert s0 / s1 == pytest.approx(l0 / l1)


# ----------------------------------------------------------------------
# service behavior: deadlines, cancellation, shedding
# ----------------------------------------------------------------------
class TestServiceContracts:
    def test_deadline_expires_inside_batch_window(self):
        async def drive():
            # Window far longer than the deadline: the request dies
            # waiting for batch-mates that never come.
            cfg = ServeConfig(batch_window_s=2.0)
            async with LowRankService(cfg) as svc:
                with pytest.raises(DeadlineExceededError) as ei:
                    await svc.submit(req(deadline_s=0.05))
                assert ei.value.reason == "deadline"
                assert svc.counters.rejections["deadline"] == 1
        asyncio.run(drive())

    def test_deadline_during_pipeline_counts_once(self, monkeypatch):
        # The submitter's timer fires while the request's pipeline
        # runs; the pipeline's late result must not count it again.
        import repro.serve.batcher as batcher_mod
        real = batcher_mod.random_sampling
        ran = []

        def slow(a, config, **kwargs):
            ran.append(config.seed)
            time.sleep(0.4)
            return real(a, config, **kwargs)

        monkeypatch.setattr(batcher_mod, "random_sampling", slow)

        async def drive():
            svc = LowRankService(ServeConfig(batch_window_s=0.0))
            await svc.start()
            with pytest.raises(DeadlineExceededError):
                await svc.submit(req(seed=130, deadline_s=0.1))
            await asyncio.wait_for(svc.close(), 10)
            return svc.counters
        counters = asyncio.run(drive())
        assert ran == [130]
        assert counters.rejections["deadline"] == 1
        assert counters.completed == counters.failed == 0
        assert counters.submitted == (counters.completed + counters.failed
                                      + sum(counters.rejections.values()))

    def test_expiry_verdict_before_the_timer_counts_once(self,
                                                         monkeypatch):
        # run_jobs' "expired before dispatch" verdict reaches the
        # submitter while its own timer is still pending (the verdict's
        # clock reads past the deadline before the event loop's does).
        real = LowRankService._skip_verdict

        def late_clock(self, jobs_by_id):
            for job in jobs_by_id.values():
                job.deadline_t -= 60.0
            return real(self, jobs_by_id)

        monkeypatch.setattr(LowRankService, "_skip_verdict", late_clock)

        async def drive():
            svc = LowRankService(ServeConfig(batch_window_s=0.0))
            await svc.start()
            with pytest.raises(DeadlineExceededError,
                               match="expired before dispatch"):
                await asyncio.wait_for(
                    svc.submit(req(seed=131, deadline_s=30.0)), 10)
            await asyncio.wait_for(svc.close(), 10)
            return svc.counters
        counters = asyncio.run(drive())
        assert counters.rejections["deadline"] == 1
        assert counters.completed == counters.failed == 0
        assert counters.submitted == (counters.completed + counters.failed
                                      + sum(counters.rejections.values()))

    def test_cancellation_mid_batch(self):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.2, max_batch=4)
            async with LowRankService(cfg) as svc:
                keep = [req(rank=10, seed=31), req(rank=11, seed=32)]
                victim = req(rank=12, seed=33)
                tasks = [asyncio.ensure_future(svc.submit(r))
                         for r in keep]
                victim_task = asyncio.ensure_future(svc.submit(victim))
                await asyncio.sleep(0.05)  # all three are in the window
                victim_task.cancel()
                arts = await asyncio.gather(*tasks)
                with pytest.raises(asyncio.CancelledError):
                    await victim_task
                assert svc.counters.rejections["cancelled"] == 1
                # Survivors still complete, still bit-identical.
                a = REF.materialize()
                for r, art in zip(keep, arts):
                    solo = random_sampling(a, r.sampling_config())
                    assert np.array_equal(art.payload.q, solo.q)
        asyncio.run(drive())

    def test_queue_full_at_service_level(self, monkeypatch):
        import repro.serve.service as service_mod
        real = service_mod.run_jobs

        def slow_run_jobs(*args, **kwargs):
            time.sleep(0.25)  # keep the worker busy while we submit
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "run_jobs", slow_run_jobs)

        async def drive():
            cfg = ServeConfig(max_queue_depth=1, batch_window_s=0.0)
            async with LowRankService(cfg) as svc:
                t1 = asyncio.ensure_future(svc.submit(req(seed=41)))
                await asyncio.sleep(0.1)  # dispatched; worker sleeping
                t2 = asyncio.ensure_future(svc.submit(req(seed=42)))
                await asyncio.sleep(0.05)  # sits queued at depth 1
                with pytest.raises(QueueFullError):
                    await svc.submit(req(seed=43))
                assert svc.counters.rejections["queue_full"] == 1
                await asyncio.gather(t1, t2)
        asyncio.run(drive())

    def test_submit_after_close_rejected(self):
        async def drive():
            svc = LowRankService(ServeConfig())
            await svc.start()
            await svc.close()
            with pytest.raises(ServiceClosedError):
                await svc.submit(req())
        asyncio.run(drive())

    def test_adaptive_and_cholqr_serve_solo(self):
        async def drive():
            async with LowRankService(ServeConfig(
                    batch_window_s=0.01)) as svc:
                adaptive = DecompRequest(matrix=REF, algorithm="adaptive",
                                         tolerance=1e-2, seed=5)
                chol = DecompRequest(matrix=REF, algorithm="cholqr")
                a1, a2 = await asyncio.gather(svc.submit(adaptive),
                                              svc.submit(chol))
                assert a1.algorithm == "adaptive"
                assert not a1.batch["coalesced"]
                assert a1.factors["subspace_size"] > 0
                assert a2.factors["q_shape"] == [400, 96]
        asyncio.run(drive())


class _RunJobsProbe:
    """Wraps the service's ``run_jobs``: records each plan's request ids
    with entry and exit times and the most calls ever in flight at
    once, and sleeps ``delay`` before running the plan."""

    def __init__(self, monkeypatch, delay: float = 0.0) -> None:
        import repro.serve.service as service_mod
        real = service_mod.run_jobs
        self.entries, self.exits = [], []
        self.in_flight = self.max_in_flight = 0
        lock = threading.Lock()

        def probe(plan, **kwargs):
            ids = [r.request_id for r in plan.requests]
            with lock:
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight,
                                         self.in_flight)
            self.entries.append((ids, time.monotonic()))
            try:
                time.sleep(delay)
                return real(plan, **kwargs)
            finally:
                self.exits.append((ids, time.monotonic()))
                with lock:
                    self.in_flight -= 1

        monkeypatch.setattr(service_mod, "run_jobs", probe)


async def _until(cond, timeout: float = 10.0) -> None:
    t0 = time.monotonic()
    while not cond():
        assert time.monotonic() - t0 < timeout, "condition never held"
        await asyncio.sleep(0.005)


class TestPipelinedLoop:
    def test_window_is_timed_from_arrival(self, monkeypatch):
        probe = _RunJobsProbe(monkeypatch, delay=0.2)

        async def drive():
            cfg = ServeConfig(batch_window_s=0.1)
            async with LowRankService(cfg) as svc:
                t1 = asyncio.ensure_future(svc.submit(req(seed=61)))
                await _until(lambda: probe.entries)
                await asyncio.sleep(0.05)  # the worker is still busy
                t2 = asyncio.ensure_future(svc.submit(req(seed=62)))
                await asyncio.wait_for(asyncio.gather(t1, t2), 10)
        asyncio.run(drive())
        # The second request's window closed while the first batch was
        # running, so it reaches the worker the moment the worker frees
        # instead of a full window later.
        (_, freed), (_, entered) = probe.exits[0], probe.entries[1]
        assert entered - freed < 0.05

    def test_window_counts_time_already_queued(self):
        async def drive():
            svc = LowRankService(ServeConfig(batch_window_s=0.5))
            job = _Job(req(), asyncio.get_running_loop().create_future(),
                       enqueued_t=time.monotonic() - 0.5, deadline_t=None)
            t0 = time.monotonic()
            jobs = await svc._collect_window(job)
            return jobs, time.monotonic() - t0
        jobs, waited = asyncio.run(drive())
        assert len(jobs) == 1 and waited < 0.25

    def test_one_window_in_flight_in_fifo_order(self, monkeypatch):
        probe = _RunJobsProbe(monkeypatch, delay=0.03)

        async def drive():
            # Two worker threads, so only the loop itself can keep a
            # second window off the worker while one is running.
            cfg = ServeConfig(batch_window_s=0.02, max_batch=3, workers=2)
            async with LowRankService(cfg) as svc:
                reqs, tasks = [], []
                for i in range(10):
                    reqs.append(req(rank=8 + i % 4, seed=100 + i))
                    tasks.append(asyncio.ensure_future(
                        svc.submit(reqs[-1])))
                    await asyncio.sleep(0.012)
                await asyncio.wait_for(asyncio.gather(*tasks), 20)
                return reqs
        reqs = asyncio.run(drive())
        assert probe.max_in_flight == 1
        assert len(probe.entries) > 1
        assert [rid for ids, _ in probe.entries for rid in ids] == \
            [r.request_id for r in reqs]

    def test_close_drains_held_and_in_flight_windows(self, monkeypatch):
        probe = _RunJobsProbe(monkeypatch, delay=0.3)

        async def drive():
            outer = asyncio.all_tasks()
            svc = LowRankService(ServeConfig(batch_window_s=0.05))
            await svc.start()
            first = asyncio.ensure_future(svc.submit(req(seed=71)))
            await _until(lambda: probe.entries)
            held = asyncio.ensure_future(svc.submit(req(seed=72)))
            await asyncio.sleep(0.1)  # its window has closed
            assert len(probe.entries) == 1 and not probe.exits
            # Awaited directly (the whole drive is under a timeout), so
            # the snapshot below is taken the moment close() returns.
            await svc.close()
            # Only the two submitters, woken by their resolved futures,
            # may still be unfinished.
            pending = asyncio.all_tasks() - outer - {first, held}
            completed = svc.counters.completed
            arts = await asyncio.wait_for(asyncio.gather(first, held), 1)
            return arts, pending, completed
        arts, pending, completed = asyncio.run(
            asyncio.wait_for(drive(), 20))
        assert all(isinstance(a, ResultArtifact) for a in arts)
        assert len(probe.exits) == 2
        assert pending == set() and completed == 2

    def test_gemm_fault_fails_its_batch_and_the_loop_keeps_serving(
            self, monkeypatch):
        fault = RuntimeError("injected gemm fault")
        gemms = [0]

        class FlakyBackend(NumpyBackend):
            name = "flaky"

            def _gemm(self, a, b):
                gemms[0] += 1
                if gemms[0] == 2:  # the stacked GEMM's second row block
                    raise fault
                return super()._gemm(a, b)

        monkeypatch.setitem(backends.BACKENDS, "flaky", FlakyBackend)

        async def drive():
            cfg = ServeConfig(batch_window_s=0.05, max_batch=8)
            svc = LowRankService(cfg)
            await svc.start()
            riders = [req(rank=8 + i, seed=80 + i, backend="flaky")
                      for i in range(3)]
            outs = await asyncio.wait_for(asyncio.gather(
                *(svc.submit(r) for r in riders),
                return_exceptions=True), 10)
            after = req(rank=10, seed=90, backend="flaky")
            art = await asyncio.wait_for(svc.submit(after), 10)
            await asyncio.wait_for(svc.close(), 10)
            return svc, outs, after, art
        svc, outs, after, art = asyncio.run(drive())
        assert all(out is fault for out in outs)
        assert svc.counters.completed == 1
        solo = random_sampling(REF.materialize(), after.sampling_config())
        assert np.array_equal(art.payload.q, solo.q)
        assert np.array_equal(art.payload.r, solo.r)
        assert np.array_equal(art.payload.perm, solo.perm)


    @pytest.mark.parametrize("failing", [1, 4])
    def test_failing_riders_keep_batch_mates_and_counters_consistent(
            self, monkeypatch, failing):
        import repro.serve.batcher as batcher_mod
        real = batcher_mod.random_sampling
        riders = [req(rank=8 + i, seed=120 + i) for i in range(4)]
        victims = {r.seed: CholeskyBreakdownError(f"injected {r.seed}")
                   for r in riders[:failing]}

        def flaky(a, config, **kwargs):
            if config.seed in victims:
                raise victims[config.seed]
            return real(a, config, **kwargs)

        monkeypatch.setattr(batcher_mod, "random_sampling", flaky)

        async def drive():
            cfg = ServeConfig(batch_window_s=0.2, max_batch=8)
            svc = LowRankService(cfg)
            await svc.start()
            outs = await asyncio.wait_for(asyncio.gather(
                *(svc.submit(r) for r in riders),
                return_exceptions=True), 20)
            await asyncio.wait_for(svc.close(), 10)
            return svc.counters, outs
        counters, outs = asyncio.run(drive())
        a = REF.materialize()
        for r, out in zip(riders, outs):
            if r.seed in victims:
                assert out is victims[r.seed]
                continue
            assert out.batch["coalesced"]
            solo = real(a, r.sampling_config())
            assert np.array_equal(out.payload.q, solo.q)
            assert np.array_equal(out.payload.r, solo.r)
            assert np.array_equal(out.payload.perm, solo.perm)
        assert counters.failed == failing
        assert counters.submitted == (counters.completed + counters.failed
                                      + sum(counters.rejections.values()))
        assert counters.batch_sizes == [4]


# ----------------------------------------------------------------------
# span labels under concurrency (satellite 4)
# ----------------------------------------------------------------------
class TestSpanLabels:
    def test_labelled_context_merges_and_restores(self):
        rec = SpanRecorder()
        with rec.labelled("a"):
            with rec.labelled("b", "a"):
                rec.record_kernel("prng", "k", 0.1, labels=["c"])
            rec.record_kernel("prng", "k2", 0.1)
        rec.record_kernel("prng", "k3", 0.1)
        kernels = list(rec.kernel_spans())
        assert kernels[0].labels == ("a", "b", "c")
        assert kernels[1].labels == ("a",)
        assert kernels[2].labels == ()

    def test_no_span_interleaving_under_concurrent_submits(self):
        self._check_no_interleaving(workers=1)

    def test_no_span_interleaving_at_two_workers(self):
        self._check_no_interleaving(workers=2)

    def _check_no_interleaving(self, workers):
        async def drive():
            cfg = ServeConfig(batch_window_s=0.05, max_batch=8,
                              workers=workers)
            async with LowRankService(cfg) as svc:
                reqs = [req(rank=8 + i, seed=50 + i) for i in range(5)]
                await asyncio.gather(*(svc.submit(r) for r in reqs))
                return svc, reqs
        svc, reqs = asyncio.run(drive())
        ids = {r.request_id for r in reqs}
        runs = svc.recorder.spans()
        by_name = {r.name: r for r in runs}
        assert ids <= set(by_name)
        for rid in ids:
            run = by_name[rid]
            for span in run.walk():
                if span.kind == "kernel":
                    # Every kernel inside a request's run span belongs
                    # to that request alone — no cross-talk.
                    assert span.labels == (rid,), (rid, span.name)
        # The batch run holds the shared GEMM, labelled with every
        # rider, plus each rider's own prng draw.
        batch_runs = [r for r in runs if r.name not in ids]
        assert len(batch_runs) == 1
        gemms = [s for s in batch_runs[0].walk()
                 if s.kind == "kernel" and s.phase == "sampling"]
        assert len(gemms) == 1
        assert set(gemms[0].labels) == ids
        prngs = [s for s in batch_runs[0].walk()
                 if s.kind == "kernel" and s.phase == "prng"]
        assert sorted(s.labels[0] for s in prngs) == sorted(ids)

    def test_chrome_export_of_the_sink(self):
        # Plans record into separate recorders, each starting where the
        # previous plan's clock stopped: the retained runs sit end to
        # end on one modeled timeline, and the sink exports as one
        # trace.
        async def drive():
            cfg = ServeConfig(batch_window_s=0.0, workers=2)
            async with LowRankService(cfg) as svc:
                for i in range(3):
                    await svc.submit(req(rank=8 + i, seed=70 + i))
                await asyncio.gather(*(svc.submit(req(rank=8, seed=80 + i))
                                       for i in range(3)))
                return svc
        svc = asyncio.run(drive())
        runs = svc.recorder.spans()
        assert len(runs) >= 6
        for prev, run in zip(runs, runs[1:]):
            assert run.start >= prev.end > prev.start
        events = spans_to_chrome(svc.recorder)
        validate_chrome_trace(events)
        assert {e["name"] for e in events if e["ph"] == "X"} \
            >= {r.name for r in runs}

    def test_chrome_export_carries_labels(self):
        rec = SpanRecorder()
        with rec.labelled("req-x"), rec.run_span("req-x"):
            rec.record_kernel("sampling", "gemm", 0.2)
        events = spans_to_chrome(rec)
        validate_chrome_trace(events)
        tagged = [e for e in events
                  if e.get("args", {}).get("labels") == ["req-x"]]
        # run span, step span, and the kernel all carry the label
        assert len(tagged) == 3


# ----------------------------------------------------------------------
# recorder memory of a long-lived service
# ----------------------------------------------------------------------
def _spans_growth(count, workers=1):
    """Serve ``count`` fixed-rank requests one at a time (one plan
    each) after a warm-up request; return the service, the served
    request ids and the tracemalloc growth charged to
    ``repro/obs/spans.py`` over them."""
    ref = MatrixRef(name="power", m=600, n=120, seed=1)

    async def drive():
        cfg = ServeConfig(batch_window_s=0.0, workers=workers)
        async with LowRankService(cfg) as svc:
            await svc.submit(DecompRequest(matrix=ref, rank=10))
            served = []
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot()
                for i in range(count):
                    art = await svc.submit(DecompRequest(matrix=ref, rank=10,
                                                         seed=i))
                    served.append(art.request_id)
                after = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            return svc, served, before, after

    svc, served, before, after = asyncio.run(drive())
    only = [tracemalloc.Filter(True, "*repro/obs/spans.py")]
    growth = sum(d.size_diff for d in after.filter_traces(only)
                 .compare_to(before.filter_traces(only), "filename"))
    return svc, served, growth


class TestRecorderMemory:
    def test_recorder_growth_per_request(self):
        # Each plan records into its own recorder, and the service keeps
        # only the last RECORDED_PLANS of them, unbuilt.  At one request
        # per plan, 201 requests overflow the sink.  Measured growth was
        # 480-830 B per request with list logs, 670-1020 B with deques.
        count = 200
        svc, _, growth = _spans_growth(count)
        assert 0 < growth / count <= 1500
        assert len(svc.recorder.runs) == RECORDED_PLANS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_growth_is_set_by_the_bound(self, monkeypatch, workers):
        # 25 times the (shrunk) bound of requests, one plan each: the
        # recorders held must be the last `keep` plans', whatever the
        # request count.  A recorder that kept every plan grew about
        # 1.3 KB per request, 130 KB here.
        keep, count = 4, 100
        monkeypatch.setattr(service_mod, "RECORDED_PLANS", keep)
        svc, served, growth = _spans_growth(count, workers=workers)
        assert 0 < growth <= keep * 5000
        # The sink holds the last `keep` plans, oldest first.
        assert [r.name for r in svc.recorder.runs] == served[-keep:]
