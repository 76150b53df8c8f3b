"""Per-layer tracing by runtime attribute replacement.

:func:`install` swaps the public entry points of each layer of
``repro`` for wrappers that record a span around the call.  No source
file of the program changes: functions are rebound in every
``repro.*`` module namespace that holds them, methods on their class.
:meth:`Tracer.uninstall` puts the originals back.

A span has a name, layer, start, end, parent and op id.  The span stack
is thread-local, so the serve worker thread nests its own spans.  A
span's self time is its duration minus the union of its children's
intervals; children on one thread run one after another, so that union
is the sum of their durations, which is accumulated as each child
closes.  Counts are taken in the same wrappers.  Spans stay in memory
(up to ``max_spans``; later ones only feed the aggregates) and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["BACKEND_KERNELS", "EXECUTOR_OPS", "NullTracer", "Tracer",
           "install", "per_layer_metrics"]

#: Backend kernels traced on :class:`repro.backends.base.ComputeBackend`.
BACKEND_KERNELS = ("gemm", "cholesky", "solve_triangular", "svd", "qr",
                   "norm", "row_norms", "fft", "standard_normal")

#: The executor operation set (:class:`repro.gpu.device.NumpyExecutor`
#: and its overrides in the device subclasses).
EXECUTOR_OPS = ("bind", "prng_gaussian", "sample_gemm",
                "sample_gemm_stacked", "fft_sample", "iter_gemm_at",
                "iter_gemm_a", "orth_rows", "block_orth_rows",
                "qrcp_sampled", "take_columns", "qr_selected",
                "solve_upper", "assemble_r", "estimate_error", "vstack",
                "gemm", "svd_small", "row_norms")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: no patches, no
    spans, nothing but the calls the workloads make."""

    def set_op(self, op) -> None:
        pass

    def reset(self) -> None:
        pass

    def record_span(self, name, layer, start, end, labels=()) -> None:
        pass


class Tracer(NullTracer):
    """Span recorder driven by the wrappers :func:`install` puts in."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        #: Retained spans: (id, parent, name, layer, start, end, self_s,
        #: op, labels), times in seconds from :attr:`epoch`.
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._threads: List[Tuple[Dict, Dict]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        #: Called by :meth:`reset`, after the aggregates are cleared.
        self.on_reset: List[Callable[[], None]] = []

    # -- per-thread state ---------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack of open frames, {name: [calls, self_s]}, {name: sum}
            state = ([], {}, {})
            self._local.state = state
            self._local.op = None
            with self._lock:
                self._threads.append(state[1:])
        return state

    def set_op(self, op) -> None:
        self._state()
        self._local.op = op

    def reset(self) -> None:
        """Zero the aggregates (call where the measured region starts)."""
        with self._lock:
            for stats, counts in self._threads:
                stats.clear()
                counts.clear()
        for hook in self.on_reset:
            hook()

    # -- recording ----------------------------------------------------
    def _keep(self, span: Tuple) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + value

    def record_span(self, name: str, layer: str, start: float, end: float,
                    labels: Tuple[str, ...] = ()) -> None:
        """A leaf span timed by the caller (an awaited request has no
        place on a thread's stack)."""
        stats = self._state()[1]
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        self._keep((next(self._ids), None, name, layer, start - self.epoch,
                    end - self.epoch, end - start, None, tuple(labels)))

    def call(self, name: str, layer: str, fn, args, kwargs,
             labels: Tuple[str, ...], post):
        stack, stats, _ = self._state()
        parent = stack[-1] if stack else None
        # [children's seconds, span id, name]
        frame = [0.0, next(self._ids), name]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            self_s = duration - frame[0]
            if parent is not None:
                parent[0] += duration
            entry = stats.setdefault(name, [0, 0.0])
            # A layer entry re-entered from inside itself (super() calls,
            # recursive fallbacks) is one call of that layer.
            if parent is None or parent[2] != name:
                entry[0] += 1
            entry[1] += self_s
            self._keep((frame[1], parent[1] if parent else None, name,
                        layer, t0 - self.epoch, t1 - self.epoch, self_s,
                        self._local.op, labels))
        if post is not None:
            post(self, parent[2] if parent else None, args, out)
        return out

    # -- aggregates ---------------------------------------------------
    def totals(self) -> Tuple[Dict[str, List], Dict[str, float]]:
        """Aggregates merged over threads: ({name: [calls, self_s]},
        {counter: value})."""
        stats: Dict[str, List] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            for s, c in self._threads:
                for name, (calls, self_s) in list(s.items()):
                    entry = stats.setdefault(name, [0, 0.0])
                    entry[0] += calls
                    entry[1] += self_s
                for name, value in list(c.items()):
                    counts[name] = counts.get(name, 0) + value
        return stats, counts

    def to_json(self) -> Dict:
        fields = ("id", "parent", "name", "layer", "start", "end", "self",
                  "op", "labels")
        return {"dropped": self.dropped,
                "spans": [dict(zip(fields, s)) for s in self.spans]}

    # -- patching -----------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, labels, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = labels(args, kwargs) if callable(labels) else labels
            return tracer.call(name, layer, fn, args, kwargs, tags, post)
        return traced

    def wrap_function(self, module: str, attr: str, name: str, layer: str,
                      labels=(), post=None) -> None:
        """Rebind ``module.attr`` in every ``repro`` namespace holding it
        (``from x import f`` copies the binding into the importer)."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrap(original, name, layer, labels, post)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str, layer: str,
                    labels=(), post=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, layer, labels, post))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()


# ----------------------------------------------------------------------
# the layers of repro
# ----------------------------------------------------------------------
def _nbytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (tuple, list)):
        return sum(_nbytes(y) for y in x)
    return 0


def _backend_post(kernel: str):
    def post(tracer: Tracer, parent, args, out) -> None:
        # Bytes computed from operand and result shapes, not measured.
        tracer.count("backends.bytes_computed",
                     sum(_nbytes(a) for a in args[1:]) + _nbytes(out))
        if kernel == "gemm":
            a, b = np.asarray(args[1]), np.asarray(args[2])
            cols = b.shape[1] if b.ndim == 2 else 1
            tracer.count("backends.gemm.flop",
                         2.0 * a.shape[0] * a.shape[-1] * cols)
    return post


def _householder_post(tracer: Tracer, parent, args, out) -> None:
    if parent == "qr.cholqr":
        tracer.count("qr.householder_fallbacks")


def _adaptive_post(tracer: Tracer, parent, args, out) -> None:
    tracer.count("core.adaptive.results")
    tracer.count("core.adaptive.steps", len(out.steps))
    tracer.count("core.adaptive.subspace", out.subspace_size)


def _rider_ids(args, kwargs) -> Tuple[str, ...]:
    plan = args[0] if args else kwargs["plan"]
    return tuple(r.request_id for r in plan.requests)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every measured layer of ``repro``."""
    from repro.backends.base import ComputeBackend
    from repro.gpu.device import GPUExecutor, NumpyExecutor, SimulatedGPU
    from repro.gpu.multigpu import MultiGPUExecutor
    from repro.gpu.streams import StreamScheduler
    from repro.matrices import registry
    from repro.obs.spans import SpanRecorder

    for kernel in BACKEND_KERNELS:
        tracer.wrap_method(ComputeBackend, kernel, f"backends.{kernel}",
                           "backends", post=_backend_post(kernel))
    tracer.wrap_function("repro.qr.qrcp", "qp3_blocked", "qr.qp3_blocked",
                         "qr")
    for fn in ("cholqr_rows", "cholqr_columns"):
        tracer.wrap_function("repro.qr.cholqr", fn, "qr.cholqr", "qr")
    tracer.wrap_function("repro.qr.cholqr", "_shifted_chol_upper",
                         "qr.shift_retry", "qr")
    tracer.wrap_function("repro.qr.householder", "householder_qr",
                         "qr.householder", "qr", post=_householder_post)
    tracer.wrap_function("repro.core.random_sampling", "random_sampling",
                         "core.random_sampling", "core")
    tracer.wrap_function("repro.core.adaptive", "adaptive_sampling",
                         "core.adaptive_sampling", "core",
                         post=_adaptive_post)
    for cls in (NumpyExecutor, GPUExecutor, MultiGPUExecutor):
        for op in EXECUTOR_OPS:
            if op in cls.__dict__:
                tracer.wrap_method(cls, op, "gpu.executor_ops", "gpu",
                                   labels=(op,))
    for cls in (GPUExecutor, MultiGPUExecutor):
        tracer.wrap_method(cls, "__init__", "gpu.executor_init", "gpu")
    tracer.wrap_method(SimulatedGPU, "charge", "gpu.charge", "gpu")
    for fn in ("submit", "submit_group"):
        tracer.wrap_method(StreamScheduler, fn, "gpu.streams.submit", "gpu")
    tracer.wrap_method(SpanRecorder, "record_kernel", "obs.record_kernel",
                       "obs")
    tracer.wrap_function("repro.matrices.registry", "get_matrix",
                         "matrices.get_matrix", "matrices")
    tracer.wrap_function("repro.bench.harness", "timed_fixed_rank",
                         "bench.timed_fixed_rank", "bench")
    tracer.wrap_function("repro.serve.batcher", "run_jobs",
                         "serve.run_jobs", "serve", labels=_rider_ids)

    def snapshot_cache() -> None:
        tracer.cache_base = registry.matrix_cache_info()
    snapshot_cache()
    tracer.on_reset.append(snapshot_cache)


def per_layer_metrics(tracer: Tracer, extra: Dict[str, float]
                      ) -> Dict[str, float]:
    """Every per-layer metric from the tracer's aggregates, plus the
    values the workload measured itself (``extra``: serve-side numbers
    that come from artifacts and counters, not from wrappers)."""
    from repro.matrices import registry

    stats, counts = tracer.totals()
    out: Dict[str, float] = {}

    def span(key: str, name: Optional[str] = None) -> None:
        calls, self_s = stats.get(name or key, [0, 0.0])
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s

    for kernel in BACKEND_KERNELS:
        span(f"backends.{kernel}")
    gflop = counts.get("backends.gemm.flop", 0.0) / 1e9
    gemm_s = out["backends.gemm.self_s"]
    out["backends.gemm.gflop"] = gflop
    out["backends.gemm.gflop_s"] = gflop / gemm_s if gemm_s > 0 else 0.0
    out["backends.bytes_computed"] = counts.get("backends.bytes_computed", 0)
    span("qr.qp3_blocked")
    span("qr.cholqr")
    out["qr.shift_retries"] = stats.get("qr.shift_retry", [0])[0]
    out["qr.householder_fallbacks"] = counts.get("qr.householder_fallbacks",
                                                 0)
    span("core.random_sampling")
    span("core.adaptive_sampling")
    results = counts.get("core.adaptive.results", 0)
    out["core.adaptive.steps_mean"] = (
        counts.get("core.adaptive.steps", 0) / results if results else 0.0)
    out["core.adaptive.subspace_mean"] = (
        counts.get("core.adaptive.subspace", 0) / results if results else 0.0)
    span("gpu.executor_ops")
    span("gpu.charge")
    span("gpu.streams.submit")
    span("obs.record_kernel")
    span("bench.timed_fixed_rank")
    span("gpu.executor_init")
    span("matrices.get_matrix")
    now = registry.matrix_cache_info()
    hits = now["hits"] - tracer.cache_base["hits"]
    misses = now["misses"] - tracer.cache_base["misses"]
    out["matrices.cache_hit_ratio"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    span("serve.run_jobs")
    out.update(extra)
    return out
