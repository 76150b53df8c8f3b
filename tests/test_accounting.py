"""Tests for the modeled-clock accounting hot path.

One modeled charge lands in two sinks — the device
:class:`repro.gpu.trace.TimeLine` and the attached
:class:`repro.obs.spans.SpanRecorder`.  The recorder appends each
charge to a flat kernel log and builds the tree of slotted
:class:`repro.obs.spans.Span` objects only when it is read.  These
tests pin what must not move while that path is kept cheap: the two
sinks agree bit for bit, the tree built from the log equals the one
the eager per-charge algorithm built (also under a racing read), step
aggregates count only accounted kernels, every sink rejects a
non-finite charge, an unread run builds no span, executors seed
their RNG only when a sampling matrix is actually drawn, a real
matrix charges exactly what a shape-only one of its size does, and
rSVD and CUR charge the products they share with random sampling.
"""

import hashlib
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import ComputeBackend
from repro.bench.harness import observed_fixed_rank, timed_fixed_rank
from repro.config import AdaptiveConfig, SamplingConfig
from repro.core.adaptive import adaptive_sampling
from repro.core.cur import cur_decomposition
from repro.core.random_sampling import random_sampling
from repro.core.svd import randomized_svd
from repro.errors import ConfigurationError, SymbolicExecutionError
from repro.gpu.device import GPUExecutor, SimulatedGPU, SymArray
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.streams import StreamScheduler
from repro.gpu.trace import PHASES, TimeLine
from repro.matrices.registry import get_matrix
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

    def test_fig15_tree_is_unchanged(self):
        # Same digest for the stream-scheduled fig15 run (ng=3, overlap
        # on), taken with the eager per-charge recorder: it pins stream
        # placement, device ids and the unaccounted mirror spans.
        _, rec = observed_fixed_rank("fig15", ng=3, overlap=True)
        (run,) = rec.spans()
        walked = list(run.walk())
        assert len(walked) == 173
        doc = {"tree": run.to_dict(),
               "walk": [[s.kind, s.name, s.phase, s.start, s.duration,
                         s.flops] for s in walked]}
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == ("72d4dd8d363e6f4a53eb66fa1dee47e5"
                          "363cafd4f6ad2305afb33e93c861bdd1")


# ---------------------------------------------------------------------------
# The tree built from the kernel log equals the eager tree
# ---------------------------------------------------------------------------

def _merged(previous, labels):
    out = list(previous)
    for lab in map(str, labels):
        if lab not in out:
            out.append(lab)
    return tuple(out)


class EagerTree:
    """Oracle: the span tree built one span per charge, as the recorder
    did before it kept a kernel log."""

    def __init__(self):
        self.runs = []
        self.clock = 0.0
        self.labels = ()
        self.open_run = None
        self._step = None

    def begin_run(self, name="run"):
        self.open_run = Span(name=name, kind="run", start=self.clock,
                             labels=self.labels)
        self.runs.append(self.open_run)

    def _close_step(self):
        if self._step is not None:
            self._step.duration = self.clock - self._step.start
            self._step = None

    def end_run(self):
        self._close_step()
        self.open_run.duration = self.clock - self.open_run.start
        self.open_run = None

    def record_kernel(self, phase, label, seconds, flops=0.0,
                      bytes_moved=0.0, device_id=0, memory_high_water=0,
                      stream=None, start=None, accounted=True, labels=()):
        placed = self.clock if start is None else start
        if self.open_run is None:
            self.begin_run()
        step = self._step
        if step is None or step.phase != phase:
            self._close_step()
            step = self._step = Span(name=phase, kind="step", phase=phase,
                                     start=min(self.clock, placed),
                                     labels=self.labels)
            self.open_run.children.append(step)
        step.children.append(Span(
            name=label or phase, kind="kernel", phase=phase, start=placed,
            duration=seconds, device_id=device_id, flops=flops,
            bytes_moved=bytes_moved, memory_high_water=memory_high_water,
            stream=stream, accounted=accounted,
            labels=_merged(self.labels, labels) if labels else self.labels))
        if accounted:
            step.flops += flops
            step.bytes_moved += bytes_moved
            if placed + seconds > self.clock:
                self.clock = placed + seconds

    def spans(self):
        if self._step is not None:
            self._step.duration = self.clock - self._step.start
        if self.open_run is not None:
            self.open_run.duration = self.clock - self.open_run.start
        return list(self.runs)

    def kernels(self):
        return [k for run in self.spans() for step in run.children
                for k in step.children]


_LABEL = st.sampled_from(["a", "b", "req-1"])
_LABELS = st.lists(_LABEL, max_size=2)
_KERNEL = st.tuples(
    st.just("kernel"),
    st.sampled_from(PHASES[:4]),  # few phases: long steps and breaks
    st.sampled_from(["", "gemm", "potrf"]),
    st.floats(0.0, 4.0),
    st.floats(0.0, 1e9),
    st.floats(0.0, 1e9),
    st.integers(-1, 2),
    st.integers(0, 1 << 20),
    st.one_of(st.none(), st.tuples(st.sampled_from(["compute", "comms"]),
                                   st.floats(0.0, 8.0))),
    st.booleans(),
    _LABELS)
_OPS = st.lists(st.one_of(
    _KERNEL, _KERNEL,
    st.tuples(st.just("push"), st.lists(_LABEL, min_size=1, max_size=2)),
    st.just(("pop",)),
    st.tuples(st.just("run"), st.sampled_from(["r1", "r2"])),
    st.just(("end",)),
    st.sampled_from([("read", "spans"), ("read", "kernels"),
                     ("read", "runs")])), max_size=60)


def _drive(ops):
    """Apply ``ops`` to a recorder and the oracle; check every read."""
    rec, oracle = SpanRecorder(), EagerTree()
    stack = []  # open contexts, innermost last: (kind, manager, labels)

    def pop():
        kind, manager, previous = stack.pop()
        manager.__exit__(None, None, None)
        if kind == "labels":
            oracle.labels = previous
        else:
            oracle.end_run()

    for op in ops:
        if op[0] == "kernel":
            (_, phase, label, seconds, flops, moved, device, high_water,
             placed, accounted, labels) = op
            stream, start = placed if placed is not None else (None, None)
            kwargs = dict(flops=flops, bytes_moved=moved, device_id=device,
                          memory_high_water=high_water, stream=stream,
                          start=start, accounted=accounted, labels=labels)
            rec.record_kernel(phase, label, seconds, **kwargs)
            oracle.record_kernel(phase, label, seconds, **kwargs)
        elif op[0] == "push":
            manager = rec.labelled(*op[1])
            manager.__enter__()
            stack.append(("labels", manager, oracle.labels))
            oracle.labels = _merged(oracle.labels, op[1])
        elif op[0] == "run" and oracle.open_run is None:
            manager = rec.run_span(op[1])
            manager.__enter__()
            oracle.begin_run(op[1])
            stack.append(("run", manager, None))
        elif op[0] == "pop" and stack:
            pop()
        elif op[0] == "end" and oracle.open_run is not None and not any(
                kind == "run" for kind, _, _ in stack):
            rec.end_run()  # an implicit run
            oracle.end_run()
        elif op[0] == "read":
            if op[1] == "spans":
                assert rec.spans() == oracle.spans()
            elif op[1] == "kernels":
                assert list(rec.kernel_spans()) == oracle.kernels()
            else:
                assert rec.runs == oracle.spans()
    final = rec.spans()
    assert final == oracle.spans()
    while stack:
        pop()
    assert rec.spans() == oracle.spans()
    assert list(rec.kernel_spans()) == oracle.kernels()
    assert rec.clock == oracle.clock
    return final


class TestKernelLog:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_OPS)
    def test_tree_equals_the_eager_oracle(self, ops):
        _drive(ops)

    def test_oracle_drive_covers_steps_mirrors_and_labels(self):
        ops = [("push", ["a"]), ("run", "r1"),
               ("kernel", "prng", "", 1.0, 0.0, 0.0, 0, 5, None, True, []),
               ("read", "spans"),
               ("kernel", "sampling", "gemm", 2.0, 4.0, 8.0, 0, 7,
                ("compute", 0.5), True, ["b"]),
               ("kernel", "sampling", "gemm", 2.0, 4.0, 8.0, 1, 7,
                ("compute", 0.5), False, []),
               ("pop",), ("kernel", "qr", "", 1.0, 0.0, 0.0, 0, 0, None,
                          True, []), ("read", "kernels")]
        first, implicit = _drive(ops)
        assert [s.phase for s in first.children] == ["prng", "sampling"]
        assert [k.labels for k in first.children[1].children] == [
            ("a", "b"), ("a",)]
        assert first.children[1].flops == 4.0
        assert implicit.name == "run" and implicit.labels == ("a",)

    def test_read_racing_a_write_loses_nothing(self):
        rec = SpanRecorder()
        runs, per_run = 8, 400

        def write(recorder, pause):
            for r in range(runs):
                with recorder.labelled(f"req-{r}"), \
                        recorder.run_span(f"run-{r}"):
                    for i in range(per_run):
                        recorder.record_kernel(
                            PHASES[(i // 3) % 4], f"k{r}.{i}", 0.25,
                            flops=1.0, device_id=i % 3,
                            stream="compute", start=0.1 * i,
                            accounted=i % 3 == 0)
                        if pause and i % 50 == 0:
                            time.sleep(0)  # let the readers in
            # An implicit run that is still open at the end.
            recorder.record_kernel("qr", "tail", 1.0)

        writing = threading.Event()
        writing.set()
        partial = []

        def read(spans):
            # Two readers, so reads also race each other.
            while writing.is_set():
                if spans:
                    rec.spans()
                else:
                    partial.append(sum(1 for _ in rec.kernel_spans()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(spans,))
                       for spans in (True, False)]
            for reader in readers:
                reader.start()
            try:
                write(rec, pause=True)
            finally:
                writing.clear()
                for reader in readers:
                    reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        kernels = list(rec.kernel_spans())
        assert len(kernels) == runs * per_run + 1
        assert [k.name for k in kernels] == [
            f"k{r}.{i}" for r in range(runs) for i in range(per_run)
        ] + ["tail"]
        once = SpanRecorder()
        write(once, pause=False)
        assert rec.spans() == once.spans()
        assert partial == sorted(partial)  # reads only ever grew

    def test_unread_fixed_rank_run_builds_no_span(self, monkeypatch):
        built = []
        init = Span.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("kind"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        for ng in (1, 3):
            timing = timed_fixed_rank(m=50_000, n=2_500, ng=ng)
            assert timing.total > 0 and timing.flops > 0
        assert built == []
        # The count sees spans: reading a recorder builds its tree.
        _, rec = observed_fixed_rank("fig11")
        assert built == []
        rec.spans()
        assert len(built) == 22


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
        rec.record_kernel("sampling", "gemm", 1.0, flops=4.0,
                          bytes_moved=8.0, device_id=1, start=0.0,
                          stream="compute", accounted=False)
        (mirror,) = [s for s in rec.kernel_spans() if not s.accounted]
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
        assert tl.total == 0.0 and tl.stats() == {}

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
        """Seeds passed to ``make_rng``, plus ``"draw"`` for each
        Gaussian block drawn from a generator."""
        calls = []
        make_rng = ComputeBackend.make_rng
        standard_normal = ComputeBackend.standard_normal

        def counting(self, seed=None):
            calls.append(seed)
            return make_rng(self, seed)

        def counting_draw(self, rng, shape):
            calls.append("draw")
            return standard_normal(self, rng, shape)
        monkeypatch.setattr(ComputeBackend, "make_rng", counting)
        monkeypatch.setattr(ComputeBackend, "standard_normal", counting_draw)
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
        assert make_rng_calls == [3, "draw", "draw"]

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


# ---------------------------------------------------------------------------
# The modeled clock reads shapes, never values
# ---------------------------------------------------------------------------

SHAPE_ONLY_EXECUTORS = {
    "ng1": lambda: GPUExecutor(seed=3),
    "ng2": lambda: MultiGPUExecutor(ng=2, seed=3),
    "ng3-serial": lambda: MultiGPUExecutor(ng=3, seed=3, overlap=False),
}


@pytest.fixture(scope="module")
def power_matrix():
    return get_matrix("power", m=2000, n=300, seed=1)


class TestModeledClockIsShapeOnly:
    """A real matrix and a :class:`SymArray` of its shape must charge
    the same modeled seconds, phase by phase.  Math that reaches a
    backend without going through a charged executor op on real data
    (a module-level backend handle, say) is missing from the real
    run's clock and shows up here as a difference.  rSVD and CUR
    refuse symbolic input, and the adaptive scheme's step count
    depends on values, so they are not compared."""

    @pytest.mark.parametrize("executor", sorted(SHAPE_ONLY_EXECUTORS))
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("sampler", ["gaussian", "fft"])
    def test_real_and_symbolic_runs_charge_alike(self, power_matrix,
                                                 sampler, q, executor):
        cfg = SamplingConfig(rank=20, power_iterations=q, sampler=sampler,
                             seed=3)
        make = SHAPE_ONLY_EXECUTORS[executor]
        real = random_sampling(power_matrix, cfg, executor=make())
        sym = random_sampling(SymArray((2000, 300)), cfg, executor=make())
        assert real.seconds == sym.seconds
        assert real.breakdown == sym.breakdown


def _phase_flops(solver, a, cfg, executor):
    """Per-phase FLOPs ``solver`` charges on ``executor``."""
    rec = SpanRecorder()
    executor.attach_recorder(rec)
    solver(a, cfg, executor=executor)
    return {phase: counter.flops for phase, counter in rec.counters.items()}


class TestRealOnlySolversChargeTheirProducts:
    """rSVD and CUR refuse symbolic input, so the shape-only comparison
    above cannot see them.  Both are built from the same charged steps
    as :func:`random_sampling`, so their per-phase FLOPs on real data
    must equal sums of shape-only random-sampling runs: a product that
    bypasses the executor drops out of its phase here."""

    @pytest.mark.parametrize("executor", sorted(SHAPE_ONLY_EXECUTORS))
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_rsvd_adds_one_sampling_sized_gemm(self, power_matrix, q,
                                               executor):
        # Stage A is random sampling's Step 1; Stage B's Y = A B^T is
        # one more GEMM of the Gaussian sampling GEMM's size.
        cfg = SamplingConfig(rank=20, power_iterations=q, seed=3)
        make = SHAPE_ONLY_EXECUTORS[executor]
        ref = _phase_flops(random_sampling, SymArray((2000, 300)), cfg,
                           make())
        got = _phase_flops(randomized_svd, power_matrix, cfg, make())
        assert got["prng"] == ref["prng"]
        assert got["sampling"] == ref["sampling"]
        assert got["gemm_iter"] == (ref.get("gemm_iter", 0.0)
                                    + ref["sampling"])

    @pytest.mark.parametrize("executor", sorted(SHAPE_ONLY_EXECUTORS))
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_cur_charges_a_pivot_pass_per_side(self, power_matrix, q,
                                               executor):
        # Column pivots come from A, row pivots from A^T: each pass is
        # random sampling's Steps 1-2 on that shape.
        cfg = SamplingConfig(rank=20, power_iterations=q, seed=3)
        make = SHAPE_ONLY_EXECUTORS[executor]
        cols = _phase_flops(random_sampling, SymArray((2000, 300)), cfg,
                            make())
        rows = _phase_flops(random_sampling, SymArray((300, 2000)), cfg,
                            make())
        got = _phase_flops(cur_decomposition, power_matrix, cfg, make())
        for phase in ("sampling", "gemm_iter", "qrcp"):
            assert got.get(phase, 0.0) == (cols.get(phase, 0.0)
                                           + rows.get(phase, 0.0)), phase
