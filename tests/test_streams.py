"""Tests for the stream/event scheduler (repro.gpu.streams) and its
integration with the multi-GPU executor and the span/trace exports."""

import pytest

from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.errors import ConfigurationError
from repro.gpu.device import SymArray
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.streams import (DEVICE_STREAMS, HOST, HOST_STREAMS,
                               StreamEvent, StreamScheduler)
from repro.obs.chrome import spans_to_chrome
from repro.obs.spans import SpanRecorder


def _mgpu_run(ng=3, overlap=True, m=150_000, n=2_500):
    ex = MultiGPUExecutor(ng=ng, seed=0, overlap=overlap)
    cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                         seed=0)
    res = random_sampling(SymArray((m, n)), cfg, executor=ex)
    return ex, res


class TestValidation:
    def test_ng_validation(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=0)

    def test_unknown_phase(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=1).submit("warp", 1.0)

    def test_negative_seconds(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=1).submit("gemm_iter", -1.0)

    def test_unknown_device(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=2).submit("gemm_iter", 1.0, device=2)

    def test_unknown_stream(self):
        sched = StreamScheduler(ng=1)
        with pytest.raises(ConfigurationError):
            sched.submit("gemm_iter", 1.0, stream="pcie")  # host-only
        with pytest.raises(ConfigurationError):
            sched.submit("comms", 1.0, device=HOST, stream="compute")

    def test_deps_must_be_events(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=1).submit("gemm_iter", 1.0, deps=[1.5])

    def test_group_needs_placements(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=1).submit_group("gemm_iter", 1.0,
                                               placements=[])

    def test_malformed_restore(self):
        # A snapshot missing a key, and arguments that are no dict.
        for state in ({"ready": {}}, 5, "x", [1], None):
            with pytest.raises(ConfigurationError):
                StreamScheduler(ng=1).restore(state)

    def test_malformed_state_key(self):
        with pytest.raises(ConfigurationError):
            StreamScheduler(ng=1).restore(
                {"ready": {"compute": 1.0}, "busy": {},
                 "frontier": 1.0, "submissions": 1})

    def test_group_validates_every_placement_when_serial(self):
        """``overlap=False`` truncates the mirrors but only *after*
        validation: a typo in any placement must fail identically in
        serialized and overlapped mode."""
        for overlap in (False, True):
            sched = StreamScheduler(ng=2, overlap=overlap)
            with pytest.raises(ConfigurationError):
                sched.submit_group("gemm_iter", 1.0, placements=[
                    (0, "compute"), (1, "compte")])
            with pytest.raises(ConfigurationError):
                sched.submit_group("gemm_iter", 1.0, placements=[
                    (0, "compute"), (5, "compute")])
            assert sched.submissions == 0


class TestSerialEquivalence:
    """overlap=off must be the old serial model, bit for bit."""

    def test_off_elapsed_is_sum(self):
        sched = StreamScheduler(ng=2, overlap=False)
        c1 = sched.submit("gemm_iter", 1.0)
        sched.submit("comms", 0.5, device=0, stream="d2h",
                     resources=[(HOST, "pcie")], deps=[c1])
        sched.submit_group("sampling", 0.25,
                           placements=[(0, "compute"), (1, "compute")])
        assert sched.elapsed == pytest.approx(1.75)
        assert sched.elapsed == pytest.approx(sched.timeline.total)

    def test_multigpu_off_matches_timeline_sum(self):
        for ng in (2, 3):
            ex, res = _mgpu_run(ng=ng, overlap=False)
            assert res.seconds == pytest.approx(sum(res.breakdown.values()))

    def test_breakdowns_identical_on_off(self):
        _, on = _mgpu_run(ng=3, overlap=True)
        _, off = _mgpu_run(ng=3, overlap=False)
        assert set(on.breakdown) == set(off.breakdown)
        for phase, secs in on.breakdown.items():
            assert secs == pytest.approx(off.breakdown[phase], rel=1e-9)


class TestOverlapBounds:
    def test_critical_path_simple_pipeline(self):
        """A gather that depends only on the previous chunk hides
        behind the next chunk's compute."""
        sched = StreamScheduler(ng=1, overlap=True)
        c1 = sched.submit("gemm_iter", 1.0)
        sched.submit("comms", 0.5, device=0, stream="d2h",
                     resources=[(HOST, "pcie")], deps=[c1])
        sched.submit("gemm_iter", 1.0)  # FIFO on the compute stream
        assert sched.elapsed == pytest.approx(2.0)       # not 2.5
        assert sched.timeline.total == pytest.approx(2.5)  # charges keep

    def test_on_never_worse_than_off(self):
        for ng in (1, 2, 3):
            _, on = _mgpu_run(ng=ng, overlap=True)
            _, off = _mgpu_run(ng=ng, overlap=False)
            assert on.seconds <= off.seconds + 1e-12

    def test_elapsed_bounded_below_by_busiest_stream(self):
        ex, res = _mgpu_run(ng=3, overlap=True)
        busiest = max(
            ex.streams.busy_seconds(d, s)
            for d in list(range(3)) + [HOST]
            for s in (HOST_STREAMS if d == HOST else DEVICE_STREAMS))
        assert busiest > 0
        assert res.seconds >= busiest - 1e-12

    def test_elapsed_at_least_max_compute_comms(self):
        """Per the satellite spec: with overlap on, elapsed can never
        beat max(total compute, total comms) on any one device."""
        ex, res = _mgpu_run(ng=2, overlap=True)
        compute = ex.streams.busy_seconds(0, "compute")
        comms = ex.streams.busy_seconds(HOST, "pcie")
        assert res.seconds >= max(compute, comms) - 1e-12


class TestReplayResume:
    def _script(self, sched, events=()):
        evs = list(events)
        c1 = sched.submit("gemm_iter", 0.7)
        evs.append(c1)
        sched.submit("comms", 0.2, device=0, stream="d2h",
                     resources=[(HOST, "pcie")], deps=[c1])
        sched.submit_group("sampling", 0.4,
                           placements=[(0, "compute"), (1, "compute")])
        sched.submit("orth_iter", 0.3, device=HOST, stream="cpu",
                     after_all=True)
        return sched

    def test_replay_deterministic(self):
        a = self._script(StreamScheduler(ng=2, overlap=True))
        b = self._script(StreamScheduler(ng=2, overlap=True))
        assert a.elapsed == b.elapsed
        assert a.state() == b.state()

    def test_resume_from_snapshot(self):
        full = self._script(self._script(StreamScheduler(ng=2)))
        half = self._script(StreamScheduler(ng=2))
        snap = half.state()
        resumed = StreamScheduler(ng=2)
        resumed.restore(snap)
        self._script(resumed)
        assert resumed.elapsed == pytest.approx(full.elapsed)
        assert resumed.state()["busy"] == pytest.approx(
            full.state()["busy"])

    def test_state_survives_json_roundtrip(self):
        import json
        half = self._script(StreamScheduler(ng=2))
        snap = json.loads(json.dumps(half.state()))
        assert snap == half.state()   # string keys: lossless round-trip
        resumed = StreamScheduler(ng=2)
        resumed.restore(snap)
        full = self._script(self._script(StreamScheduler(ng=2)))
        self._script(resumed)
        assert resumed.elapsed == pytest.approx(full.elapsed)
        assert resumed.state() == full.state()

    def test_restore_accepts_legacy_tuple_keys(self):
        half = self._script(StreamScheduler(ng=2))
        snap = half.state()
        legacy = dict(snap)
        legacy["ready"] = {(int(k.split(":")[0]), k.split(":")[1]): v
                           for k, v in snap["ready"].items()}
        legacy["busy"] = {(int(k.split(":")[0]), k.split(":")[1]): v
                          for k, v in snap["busy"].items()}
        resumed = StreamScheduler(ng=2)
        resumed.restore(legacy)
        assert resumed.state() == snap

    def test_reset_clears_clock(self):
        sched = self._script(StreamScheduler(ng=2))
        sched.reset()
        assert sched.elapsed == 0.0
        assert sched.submissions == 0


class TestGroupMirrors:
    def test_mirrors_recorded_once_accounted(self):
        rec = SpanRecorder()
        sched = StreamScheduler(ng=3, overlap=True)
        sched.attach_recorder(rec)
        sched.submit_group("gemm_iter", 1.0, placements=[
            (0, "compute"), (1, "compute"), (2, "compute")])
        spans = list(rec.kernel_spans())
        assert len(spans) == 3
        assert sum(s.accounted for s in spans) == 1
        assert rec.counters["gemm_iter"].seconds == pytest.approx(1.0)
        assert rec.counters["gemm_iter"].calls == 1
        assert sched.timeline.total == pytest.approx(1.0)

    def test_no_mirrors_when_serial(self):
        rec = SpanRecorder()
        sched = StreamScheduler(ng=3, overlap=False)
        sched.attach_recorder(rec)
        sched.submit_group("gemm_iter", 1.0, placements=[
            (0, "compute"), (1, "compute"), (2, "compute")])
        assert len(list(rec.kernel_spans())) == 1
        assert sched.elapsed == pytest.approx(1.0)


class TestChromeStreamTracks:
    def test_per_device_per_stream_tracks(self):
        ex = MultiGPUExecutor(ng=3, seed=0, overlap=True)
        rec = SpanRecorder()
        ex.attach_recorder(rec)
        cfg = SamplingConfig(rank=54, oversampling=10,
                             power_iterations=1, seed=0)
        with rec.run_span("fig15 ng=3"):
            random_sampling(SymArray((150_000, 2_500)), cfg, executor=ex)
        events = spans_to_chrome(rec)
        process_names = {e["pid"]: e["args"]["name"] for e in events
                         if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"gpu0", "gpu1", "gpu2", "host"} <= set(
            process_names.values())
        thread_names = {(e["pid"], e["tid"]): e["args"]["name"]
                        for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        by_pid = {}
        for (pid, _tid), name in thread_names.items():
            by_pid.setdefault(process_names.get(pid), set()).add(name)
        assert "compute" in by_pid["gpu0"] and "d2h" in by_pid["gpu0"]
        # The host cpu stream records spans (accumulate/potrf); the
        # pcie lane is a serialization resource, not a recording track.
        assert "cpu" in by_pid["host"]
        streams = {e["args"].get("stream") for e in events
                   if e["ph"] == "X" and "args" in e
                   and e["args"].get("stream")}
        assert "compute" in streams and "d2h" in streams
        # Mirror spans are in the trace but flagged unaccounted.
        accounted = [e["args"]["accounted"] for e in events
                     if e["ph"] == "X" and "args" in e
                     and "accounted" in e["args"]]
        assert any(accounted) and not all(accounted)

    def test_overlap_visible_in_trace(self):
        """With overlap on, some comms span must start before the last
        compute span of its step ends — actual overlap in the trace."""
        ex = MultiGPUExecutor(ng=3, seed=0, overlap=True)
        rec = SpanRecorder()
        ex.attach_recorder(rec)
        cfg = SamplingConfig(rank=54, oversampling=10,
                             power_iterations=1, seed=0)
        with rec.run_span("overlap"):
            random_sampling(SymArray((150_000, 2_500)), cfg, executor=ex)
        kernels = [s for s in rec.kernel_spans() if s.stream is not None]
        comms = [s for s in kernels if s.phase == "comms"]
        compute = [s for s in kernels if s.stream == "compute"]
        assert any(
            c.start < k.end and c.end > k.start
            for c in comms for k in compute)
