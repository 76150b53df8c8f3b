"""Tests for the modeled-clock accounting hot path.

One modeled charge lands in two sinks — the device
:class:`repro.gpu.trace.TimeLine` and the attached
:class:`repro.obs.spans.SpanRecorder` — and each recorded kernel builds
a slotted :class:`repro.obs.spans.Span`.  These tests pin what must not
move while that path is kept cheap: the two sinks agree bit for bit,
step aggregates count only accounted kernels, every sink rejects a
non-finite charge, the span tree is unchanged, and executors seed
their RNG only when a sampling matrix is actually drawn.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.backends.base import ComputeBackend
from repro.bench.harness import observed_fixed_rank, timed_fixed_rank
import repro.gpu.device as device
from repro.config import AdaptiveConfig, SamplingConfig
from repro.core.adaptive import adaptive_sampling
from repro.core.random_sampling import random_sampling
from repro.errors import ConfigurationError, SymbolicExecutionError
from repro.gpu.device import GPUExecutor, SimulatedGPU, SymArray
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.streams import StreamScheduler
from repro.gpu.trace import PHASES, TimeLine
from repro.obs.spans import Span, SpanRecorder

NON_FINITE = [math.nan, math.inf, -math.inf]


# ---------------------------------------------------------------------------
# Span: a slotted class with dataclass semantics
# ---------------------------------------------------------------------------

class TestSlottedSpan:
    def test_has_no_instance_dict(self):
        span = Span(name="gemm", kind="kernel")
        assert not hasattr(span, "__dict__")
        with pytest.raises(AttributeError):
            span.not_a_field = 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown span kind"):
            Span(name="x", kind="phase")

    def test_defaults_match_the_field_list(self):
        span = Span("r", "run")
        assert (span.start, span.duration, span.phase, span.device_id,
                span.flops, span.bytes_moved, span.memory_high_water,
                span.stream, span.accounted, span.labels,
                span.children) == (0.0, 0.0, None, 0, 0.0, 0.0, 0, None,
                                   True, (), [])
        # Each span gets its own children list.
        assert Span("r", "run").children is not span.children

    def test_eq_compares_fields(self):
        a = Span(name="gemm", kind="kernel", phase="sampling", flops=2.0)
        b = Span(name="gemm", kind="kernel", phase="sampling", flops=2.0)
        assert a == b
        b.flops = 3.0
        assert a != b
        assert a != object()
        parent_a = Span("s", "step", children=[a])
        parent_b = Span("s", "step", children=[Span(
            name="gemm", kind="kernel", phase="sampling", flops=2.0)])
        assert parent_a == parent_b
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_is_the_dataclass_form(self):
        assert repr(Span("r", "run", labels=("req-1",))) == (
            "Span(name='r', kind='run', start=0.0, duration=0.0, "
            "phase=None, device_id=0, flops=0.0, bytes_moved=0.0, "
            "memory_high_water=0, stream=None, accounted=True, "
            "labels=('req-1',), children=[])")

    def test_fig11_tree_is_unchanged(self):
        # Digest of the fig11 run's to_dict() and walk() output, taken
        # with the former dataclass Span.  The modeled clock is
        # deterministic, so any change to the tree's shape, order or
        # values moves it.
        _, rec = observed_fixed_rank("fig11")
        (run,) = rec.spans()
        walked = list(run.walk())
        assert len(walked) == 22
        doc = {"tree": run.to_dict(),
               "walk": [[s.kind, s.name, s.phase, s.start, s.duration,
                         s.flops] for s in walked]}
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == ("db040c021a45b7cbe54af99f45af8c3f"
                          "6aad8f059d093c0dc77b0969e9701c5a")


# ---------------------------------------------------------------------------
# The two sinks agree bit for bit
# ---------------------------------------------------------------------------

def _symbolic_run(m, n, k, q, ng=1, overlap=True):
    ex = (GPUExecutor(seed=0) if ng == 1
          else MultiGPUExecutor(ng=ng, seed=0, overlap=overlap))
    rec = SpanRecorder()
    ex.attach_recorder(rec)
    cfg = SamplingConfig(rank=k, oversampling=10, power_iterations=q,
                         seed=0)
    with rec.run_span("run"):
        random_sampling(SymArray((m, n)), cfg, executor=ex)
    return ex, rec


SINK_POINTS = {
    "fig11 m=2500": dict(m=2_500, n=2_500, k=54, q=1),
    "fig11 m=50000": dict(m=50_000, n=2_500, k=54, q=1),
    "fig13 l=32": dict(m=50_000, n=2_500, k=22, q=1),
    "fig13 l=512": dict(m=50_000, n=2_500, k=502, q=1),
    "fig14 q=0": dict(m=50_000, n=2_500, k=54, q=0),
    "fig14 q=12": dict(m=20_000, n=2_500, k=54, q=12),
    "fig15 ng=2 on": dict(m=150_000, n=2_500, k=54, q=1, ng=2),
    "fig15 ng=2 off": dict(m=150_000, n=2_500, k=54, q=1, ng=2,
                           overlap=False),
    "fig15 ng=3 on": dict(m=150_000, n=2_500, k=54, q=1, ng=3),
    "fig15 ng=3 off": dict(m=150_000, n=2_500, k=54, q=1, ng=3,
                           overlap=False),
}


class TestSinksAgree:
    @pytest.mark.parametrize("point", sorted(SINK_POINTS))
    def test_recorder_counters_equal_timeline(self, point):
        ex, rec = _symbolic_run(**SINK_POINTS[point])
        for phase in PHASES:
            counter = rec.counters.get(phase)
            if counter is None:
                assert ex.timeline.calls(phase) == 0
                continue
            assert counter.seconds == ex.timeline.seconds(phase)
            assert counter.calls == ex.timeline.calls(phase)
        assert rec.counters  # the run charged something


# ---------------------------------------------------------------------------
# Step aggregates count accounted kernels only
# ---------------------------------------------------------------------------

class TestStepAggregates:
    @pytest.mark.parametrize("ng", [1, 2, 3])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_step_flops_sum_to_counter_total(self, ng, overlap):
        _, rec = observed_fixed_rank("fig15", ng=ng, overlap=overlap)
        steps = [s for run in rec.spans() for s in run.children]
        assert all(s.kind == "step" for s in steps)
        total = rec.total_flops
        assert total > 0
        assert sum(s.flops for s in steps) == pytest.approx(total,
                                                            rel=1e-12)
        assert sum(s.bytes_moved for s in steps) == pytest.approx(
            rec.total_bytes_moved, rel=1e-12)

    def test_mirror_span_leaves_step_aggregates_alone(self):
        rec = SpanRecorder()
        rec.record_kernel("sampling", "gemm", 1.0, flops=4.0,
                          bytes_moved=8.0, start=0.0, stream="compute")
        mirror = rec.record_kernel("sampling", "gemm", 1.0, flops=4.0,
                                   bytes_moved=8.0, device_id=1,
                                   start=0.0, stream="compute",
                                   accounted=False)
        (run,) = rec.spans()
        (step,) = run.children
        assert mirror in step.children
        assert (step.flops, step.bytes_moved) == (4.0, 8.0)
        assert rec.total_flops == 4.0


# ---------------------------------------------------------------------------
# Non-finite charges are typed errors in every sink
# ---------------------------------------------------------------------------

class TestNonFiniteCharges:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_timeline_charge(self, bad):
        tl = TimeLine()
        with pytest.raises(ConfigurationError, match="finite"):
            tl.charge("qr", bad)
        assert tl.total == 0.0 and tl.events == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_simulated_gpu_charge(self, bad):
        gpu = SimulatedGPU()
        rec = SpanRecorder()
        gpu.attach_recorder(rec)
        with pytest.raises(ConfigurationError, match="finite"):
            gpu.charge("sampling", bad, "gemm")
        assert gpu.elapsed == 0.0
        assert rec.counters == {} and rec.runs == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_record_kernel(self, bad):
        rec = SpanRecorder()
        with pytest.raises(ConfigurationError, match="finite"):
            rec.record_kernel("qr", "geqrf", bad)
        assert rec.counters == {} and rec.clock == 0.0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_stream_submit(self, bad):
        sched = StreamScheduler(ng=2)
        with pytest.raises(ConfigurationError, match="finite"):
            sched.submit("gemm_iter", bad, device=1)
        assert sched.elapsed == 0.0 and sched.submissions == 0
        assert sched.timeline.total == 0.0

    def test_zero_is_still_a_valid_charge(self):
        tl = TimeLine()
        tl.charge("qr", 0.0)
        assert tl.calls("qr") == 1

    def test_timeline_calls_rejects_unknown_phase(self):
        with pytest.raises(ConfigurationError, match="unknown phase"):
            TimeLine().calls("bogus")


# ---------------------------------------------------------------------------
# The executor RNG is built on first use
# ---------------------------------------------------------------------------

class TestLazyRng:
    @pytest.fixture
    def make_rng_calls(self, monkeypatch):
        """Seeds passed to ``make_rng``, plus ``"helper"`` for each
        request for the Omega draw-ahead thread (forced available, as
        tier-1 runs with BLAS unpinned)."""
        calls = []
        original = ComputeBackend.make_rng
        helper_pool = device._helper_pool

        def counting(self, seed=None):
            calls.append(seed)
            return original(self, seed)

        def counting_helper():
            calls.append("helper")
            return helper_pool()
        monkeypatch.setattr(ComputeBackend, "make_rng", counting)
        monkeypatch.setattr(device, "_spare_core", lambda: True)
        monkeypatch.setattr(device, "_helper_pool", counting_helper)
        return calls

    @pytest.mark.parametrize("ng", [1, 3])
    def test_symbolic_run_never_seeds(self, make_rng_calls, ng):
        timing = timed_fixed_rank(50_000, 2_500, ng=ng, seed=7)
        assert timing.total > 0
        assert make_rng_calls == []

    @pytest.mark.parametrize("rule", ["static", "interpolate"])
    def test_symbolic_adaptive_run_never_draws_ahead(self, make_rng_calls,
                                                     rule):
        cfg = AdaptiveConfig(tolerance=1e-6, step_rule=rule, seed=3)
        with pytest.raises(SymbolicExecutionError):
            adaptive_sampling(SymArray((5_000, 500)), cfg,
                              executor=GPUExecutor(seed=3))
        assert make_rng_calls == []

    def test_first_draw_seeds_once(self, make_rng_calls):
        ex = GPUExecutor(seed=3)
        assert make_rng_calls == []
        ex.prng_gaussian(4, 6)
        ex.prng_gaussian(4, 6)
        assert make_rng_calls == [3]

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_omega_is_the_seeded_pcg64_stream(self, seed):
        omega = GPUExecutor(seed=seed).prng_gaussian(16, 300)
        expected = np.random.default_rng(seed).standard_normal((16, 300))
        assert omega.tobytes() == expected.tobytes()

    def test_assigned_generator_is_used(self):
        ex = GPUExecutor(seed=0)
        ex.rng = np.random.default_rng(99)
        expected = np.random.default_rng(99).standard_normal((3, 5))
        assert ex.prng_gaussian(3, 5).tobytes() == expected.tobytes()
