"""Tests for :mod:`repro.obs` — spans, Chrome-trace export, the
``BENCH_*.json`` artifact, and the ``obs`` CLI diff gate.

The modeled device is deterministic, so the round-trip contracts are
exact: a recorder's counters equal the executor clock, an artifact
written and re-read diffs to zero, and phase sums match point totals
to machine precision.
"""

import json

import pytest

from repro.bench.export import OBS_FIGURES, write_figure_artifact
from repro.bench.harness import OBS_RUN_CONFIGS, observed_fixed_rank
from repro.errors import ConfigurationError
from repro.gpu.device import GPUExecutor, SimulatedGPU
from repro.gpu.memory import DeviceMemory
from repro.gpu.trace import PHASES, TimeLine
from repro.obs import (
    SCHEMA_VERSION, SpanRecorder, attach_series, attached_records,
    build_artifact, diff_artifacts, figure_record, load_artifact, point,
    reset_attached, spans_to_chrome, validate_artifact,
    validate_chrome_trace, write_artifact, write_attached,
    write_chrome_trace,
)
from repro.obs.cli import EXIT_ERROR, EXIT_OK, EXIT_REGRESSION
from repro.obs.cli import main as obs_main


# ---------------------------------------------------------------------------
# SpanRecorder: the run -> step -> kernel tree
# ---------------------------------------------------------------------------

class TestSpanRecorder:
    def test_step_breaks_on_phase_change(self):
        rec = SpanRecorder()
        with rec.run_span("r"):
            rec.record_kernel("prng", "curand", 1.0)
            rec.record_kernel("sampling", "gemm", 2.0)
            rec.record_kernel("sampling", "gemm", 3.0)
            rec.record_kernel("qr", "geqrf", 4.0)
        (run,) = rec.spans()
        assert [s.phase for s in run.children] == ["prng", "sampling", "qr"]
        assert [s.duration for s in run.children] == [1.0, 5.0, 4.0]
        assert run.duration == 10.0
        assert rec.clock == 10.0
        assert sum(c.seconds for c in rec.counters.values()) == 10.0

    def test_kernels_carry_counters_and_watermark(self):
        rec = SpanRecorder()
        rec.record_kernel("sampling", "gemm", 2.0, flops=4e9,
                          bytes_moved=1e6, memory_high_water=500)
        rec.record_kernel("sampling", "gemm", 2.0, flops=4e9,
                          bytes_moved=1e6, memory_high_water=300)
        c = rec.counters_dict()["sampling"]
        assert c == {"seconds": 4.0, "calls": 2, "flops": 8e9,
                     "bytes_moved": 2e6}
        assert [k.memory_high_water for k in rec.kernel_spans()] == [500,
                                                                     300]

    def test_walk_and_to_dict_cover_all_levels(self):
        rec = SpanRecorder()
        with rec.run_span("r"):
            rec.record_kernel("qr", "geqrf", 1.0)
        (run,) = rec.spans()
        kinds = [s.kind for s in run.walk()]
        assert kinds == ["run", "step", "kernel"]
        d = run.to_dict()
        assert d["kind"] == "run"
        assert d["children"][0]["children"][0]["name"] == "geqrf"

    def test_unknown_phase_and_negative_seconds_raise(self):
        rec = SpanRecorder()
        with pytest.raises(ConfigurationError, match="unknown phase"):
            rec.record_kernel("warmup", "x", 1.0)
        with pytest.raises(ConfigurationError, match="negative"):
            rec.record_kernel("qr", "x", -1.0)

    def test_nested_or_dangling_run_management_raises(self):
        rec = SpanRecorder()
        rec.begin_run("a")
        with pytest.raises(ConfigurationError, match="still open"):
            rec.begin_run("b")
        rec.end_run()
        with pytest.raises(ConfigurationError, match="no open run"):
            rec.end_run()

    def test_bare_kernel_opens_an_implicit_run(self):
        rec = SpanRecorder()
        rec.record_kernel("qr", "geqrf", 1.0)
        (run,) = rec.spans()
        assert run.kind == "run" and run.duration == 1.0

    def test_multiple_runs_share_one_clock(self):
        rec = SpanRecorder()
        with rec.run_span("a"):
            rec.record_kernel("qr", "x", 1.0)
        with rec.run_span("b"):
            rec.record_kernel("qr", "x", 2.0)
        first, second = rec.spans()
        assert first.end == second.start == 1.0
        assert rec.counters_dict()["qr"]["seconds"] == 3.0


# ---------------------------------------------------------------------------
# Device layer: SimulatedGPU.charge feeds the recorder (and validates)
# ---------------------------------------------------------------------------

class TestDeviceIntegration:
    def test_charge_unknown_phase_raises_eagerly(self):
        gpu = SimulatedGPU()
        with pytest.raises(ConfigurationError, match="unknown phase"):
            gpu.charge("warmup", 1.0)
        # Nothing must have landed on the timeline either.
        assert gpu.timeline.total == 0.0

    def test_charge_forwards_to_attached_recorder(self):
        gpu = SimulatedGPU()
        rec = SpanRecorder()
        gpu.attach_recorder(rec)
        gpu.charge("qr", 0.5, "geqrf", flops=1e9, bytes_moved=1e6)
        (kernel,) = rec.kernel_spans()
        assert kernel.name == "geqrf"
        assert kernel.flops == 1e9
        assert gpu.timeline.counters == rec.counters
        assert gpu.timeline.total == 0.5

    def test_executor_run_matches_timeline_exactly(self):
        # The acceptance invariant: recorder total == executor clock,
        # phase sums match the timeline per phase, and the timing's
        # aggregates are the recorder's.
        timing, rec = observed_fixed_rank("fig11", m=2000, n=500, k=24)
        counters = rec.counters.values()
        seconds = sum(c.seconds for c in counters)
        assert seconds == pytest.approx(timing.total, abs=1e-12)
        assert sum(timing.breakdown.values()) == pytest.approx(
            timing.total, abs=1e-9)
        for phase, counter in rec.counters_dict().items():
            assert counter["seconds"] == pytest.approx(
                timing.breakdown[phase], abs=1e-12)
        assert timing.flops == sum(c.flops for c in counters) > 0
        assert timing.bytes_moved == sum(c.bytes_moved for c in counters)
        assert timing.gflops == timing.flops / (seconds * 1e9) > 0
        assert timing.peak_memory_bytes == max(
            k.memory_high_water for k in rec.kernel_spans()) > 0

    def test_observed_fixed_rank_rejects_unknown_figure(self):
        with pytest.raises(ConfigurationError, match="no observability"):
            observed_fixed_rank("fig99")

    def test_run_configs_cover_breakdown_figures(self):
        assert set(OBS_RUN_CONFIGS) == set(OBS_FIGURES)

    def test_plain_run_without_recorder_still_works(self):
        ex = GPUExecutor(seed=0)
        ex.attach_recorder(None)
        assert ex.device.recorder is None


# ---------------------------------------------------------------------------
# TimeLine.stats() and DeviceMemory.reset()
# ---------------------------------------------------------------------------

class TestTraceAndMemory:
    def test_timeline_stats_counts_calls(self):
        tl = TimeLine()
        tl.charge("qr", 1.0)
        tl.charge("qr", 2.0)
        tl.charge("prng", 0.5)
        stats = tl.stats()
        assert stats["qr"] == {"seconds": 3.0, "calls": 2}
        assert stats["prng"]["calls"] == 1
        assert "sampling" not in stats
        assert list(stats) == [p for p in PHASES if p in stats]

    def test_device_memory_reset_clears_high_water(self):
        mem = DeviceMemory(capacity_bytes=1000)
        h = mem.allocate(800)
        mem.free(h)
        assert mem.high_water == 800
        mem.reset()
        assert mem.high_water == 0
        assert mem.used == 0


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def _recorder(self):
        rec = SpanRecorder()
        with rec.run_span("fig"):
            rec.record_kernel("prng", "curand", 0.1, flops=1e6)
            rec.record_kernel("sampling", "gemm", 0.2, flops=2e9,
                              bytes_moved=3e6, memory_high_water=42)
        return rec

    def test_events_validate_and_serialize(self, tmp_path):
        rec = self._recorder()
        events = spans_to_chrome(rec, process_name="test-gpu")
        validate_chrome_trace(events)
        json.dumps(events)  # must be JSON-safe as-is
        xs = [e for e in events if e["ph"] == "X"]
        # 1 run + 2 steps + 2 kernels
        assert len(xs) == 5
        metas = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {m["name"] for m in metas}

    def test_kernels_land_on_their_phase_thread(self):
        events = spans_to_chrome(self._recorder())
        kernel = next(e for e in events
                      if e["ph"] == "X" and e["name"] == "gemm")
        step = next(e for e in events
                    if e["ph"] == "X" and e["name"] == "sampling")
        assert kernel["tid"] != step["tid"] == 0
        assert kernel["args"]["memory_high_water"] == 42
        assert kernel["ts"] == pytest.approx(0.1 * 1e6)
        assert kernel["dur"] == pytest.approx(0.2 * 1e6)

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), self._recorder())
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc
        assert on_disk["displayTimeUnit"] == "ms"
        validate_chrome_trace(on_disk["traceEvents"])

    @pytest.mark.parametrize("events, match", [
        ([], "non-empty"),
        ([{"ph": "B", "name": "x", "pid": 0, "tid": 0}], "phase type"),
        ([{"ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 1}], "name"),
        ([{"ph": "X", "name": "x", "pid": 0, "tid": 0,
           "ts": -1, "dur": 1}], "invalid ts"),
        ([{"ph": "M", "name": "x", "pid": 0, "tid": 0}], "args"),
    ])
    def test_validate_rejects_malformed_events(self, events, match):
        with pytest.raises(ConfigurationError, match=match):
            validate_chrome_trace(events)


# ---------------------------------------------------------------------------
# BENCH artifact: write -> load -> diff == zero
# ---------------------------------------------------------------------------

def _small_artifact(label="test", sampling=1.0):
    pt = point({"m": 100, "n": 10}, phases={"sampling": sampling,
                                            "qr": 0.5},
               metrics={"speedup": 3.0})
    return build_artifact([figure_record("figX", points=[pt])], label=label)


class TestArtifact:
    def test_point_validates_phase_tags(self):
        with pytest.raises(ConfigurationError, match="unknown phase"):
            point({"m": 1}, phases={"warmup": 1.0})

    def test_point_total_defaults_to_phase_sum(self):
        pt = point({"m": 1}, phases={"sampling": 1.0, "qr": 0.25})
        assert pt["total_seconds"] == 1.25

    def test_roundtrip_diffs_to_exactly_zero(self, tmp_path):
        doc = _small_artifact()
        path = tmp_path / "BENCH_test.json"
        write_artifact(str(path), doc)
        loaded = load_artifact(str(path))
        assert loaded == doc
        result = diff_artifacts(doc, loaded)
        assert result.ok
        assert all(e.delta == 0.0 for e in result.entries)
        # total + 2 phases + 1 metric
        assert len(result.entries) == 4

    def test_build_artifact_merges_same_figure_later_wins(self):
        a = figure_record("figX", points=[point({"m": 1},
                                                phases={"qr": 1.0})])
        b = figure_record("figX", points=[point({"m": 1},
                                                phases={"qr": 2.0}),
                                          point({"m": 2},
                                                phases={"qr": 3.0})])
        doc = build_artifact([a, b])
        pts = doc["figures"]["figX"]["points"]
        assert len(pts) == 2
        by_m = {p["params"]["m"]: p["phases"]["qr"] for p in pts}
        assert by_m == {1: 2.0, 2: 3.0}

    def test_validate_rejects_wrong_schema_version(self):
        doc = _small_artifact()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema_version"):
            validate_artifact(doc)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="malformed"):
            load_artifact(str(path))

    def test_write_figure_artifact_phases_sum_to_total(self, tmp_path):
        path = tmp_path / "BENCH_fig11.json"
        doc = write_figure_artifact(str(path), "fig11")
        assert load_artifact(str(path)) == doc
        points = doc["figures"]["fig11"]["points"]
        assert points
        for pt in points:
            assert sum(pt["phases"].values()) == pytest.approx(
                pt["total_seconds"], abs=1e-9)


class TestAttachSeries:
    class FakeBenchmark:
        def __init__(self):
            self.extra_info = {}

    def setup_method(self):
        reset_attached()

    def teardown_method(self):
        reset_attached()

    def test_attach_records_extra_info_and_session(self):
        bench = self.FakeBenchmark()
        attach_series(bench, "figX",
                      points=[point({"m": 1}, phases={"qr": 1.0})],
                      metrics={"speedup": 2.0})
        assert bench.extra_info["repro_obs"]["figure"] == "figX"
        assert bench.extra_info["speedup"] == 2.0
        assert len(attached_records()) == 1

    def test_second_attach_merges_on_the_same_benchmark(self):
        bench = self.FakeBenchmark()
        attach_series(bench, "figX",
                      points=[point({"m": 1}, phases={"qr": 1.0})])
        attach_series(bench, "figX",
                      points=[point({"m": 2}, phases={"qr": 2.0})],
                      metrics={"speedup": 2.0})
        record = bench.extra_info["repro_obs"]
        assert len(record["points"]) == 2
        assert record["metrics"]["speedup"] == 2.0

    def test_attach_needs_an_extra_info_mapping(self):
        with pytest.raises(ConfigurationError, match="extra_info"):
            attach_series(object(), "figX", points=[])

    def test_write_attached_builds_session_artifact(self, tmp_path):
        bench = self.FakeBenchmark()
        attach_series(bench, "figX",
                      points=[point({"m": 1}, phases={"qr": 1.0})])
        path = tmp_path / "BENCH_session.json"
        doc = write_attached(str(path), label="smoke")
        assert doc["label"] == "smoke"
        assert load_artifact(str(path)) == doc
        reset_attached()
        assert write_attached(str(path)) is None


# ---------------------------------------------------------------------------
# The diff gate and its CLI exit codes
# ---------------------------------------------------------------------------

class TestDiffGate:
    def test_regression_beyond_tolerance_fails(self):
        base = _small_artifact()
        slow = _small_artifact(sampling=1.2)
        result = diff_artifacts(base, slow, tol=0.05)
        assert not result.ok
        fields = {e.field for e in result.regressions}
        assert "sampling" in fields and "total" in fields

    def test_improvement_and_metric_drift_pass(self):
        base = _small_artifact()
        fast = _small_artifact(sampling=0.5)
        fast["figures"]["figX"]["points"][0]["metrics"]["speedup"] = 9.0
        result = diff_artifacts(base, fast, tol=0.05)
        assert result.ok
        statuses = {e.field: e.status for e in result.entries}
        assert statuses["sampling"] == "improvement"
        assert statuses["metric:speedup"] == "drift"

    def test_missing_figure_and_point_are_regressions(self):
        base = _small_artifact()
        base["figures"]["figY"] = {"points": [point({"m": 7},
                                                    phases={"qr": 1.0})]}
        new = _small_artifact()
        result = diff_artifacts(base, new)
        assert [e.figure for e in result.regressions] == ["figY"]

    def test_within_tolerance_passes(self):
        base = _small_artifact()
        near = _small_artifact(sampling=1.04)
        assert diff_artifacts(base, near, tol=0.05).ok

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_cli_exit_zero_on_match(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _small_artifact())
        b = self._write(tmp_path, "b.json", _small_artifact())
        assert obs_main(["diff", a, b]) == EXIT_OK
        assert "0 regression(s)" in capsys.readouterr().out

    def test_cli_exit_one_on_regression(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _small_artifact())
        b = self._write(tmp_path, "b.json", _small_artifact(sampling=1.5))
        assert obs_main(["diff", a, b, "--tol", "0.05"]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_exit_two_on_usage_errors(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _small_artifact())
        # Missing file, malformed artifact, bad subcommand: all exit 2.
        assert obs_main(["diff", a, str(tmp_path / "nope.json")]) \
            == EXIT_ERROR
        bad = self._write(tmp_path, "bad.json", {"schema_version": 99})
        assert obs_main(["diff", a, bad]) == EXIT_ERROR
        assert obs_main(["frobnicate"]) == EXIT_ERROR
        capsys.readouterr()

    def test_cli_run_rejects_unknown_figure(self, capsys):
        assert obs_main(["run", "fig99", "--bench", "x.json"]) == EXIT_ERROR
        assert "unsupported figure" in capsys.readouterr().err

    def test_cli_run_requires_an_output(self, capsys):
        assert obs_main(["run", "fig11"]) == EXIT_ERROR
        assert "nothing to do" in capsys.readouterr().err

    def test_cli_render_prints_tables(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _small_artifact())
        assert obs_main(["render", a]) == EXIT_OK
        out = capsys.readouterr().out
        assert "figX" in out and "speedup" in out
