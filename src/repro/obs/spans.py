"""Hierarchical spans over the simulated-GPU executor.

A run is recorded as a three-level span tree::

    run                      (one per algorithm invocation)
    └── step                 (a contiguous stretch of one phase tag)
        └── kernel           (one SimulatedGPU.charge call)

Kernel spans carry the modeled seconds, a FLOP estimate and the bytes
moved (both from the :mod:`repro.perfmodel.costs` word model via the
executor timing hooks), the device id, and the device-memory
high-water mark sampled at charge time.  The recorder lays spans out
on a single modeled clock, in the order the device timeline records
its charges, so the span tree, the timeline, and the Chrome-trace
export (:func:`repro.obs.chrome.spans_to_chrome`) all agree on phase
attribution and totals.

Stream-scheduled work (:mod:`repro.gpu.streams`) places kernels at an
explicit ``start`` on a named per-device ``stream`` instead of the
sequential clock; the recorder clock then tracks the max end time (the
critical path).  Symmetric multi-device work arrives once *accounted*
(it feeds the per-phase counters) plus unaccounted mirror spans for
the other devices, which appear in the tree and the Chrome trace but
never in the totals.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import inf
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..gpu.trace import PHASES

__all__ = ["Span", "PhaseCounter", "SpanRecorder"]

SPAN_KINDS = ("run", "step", "kernel")


#: Span attributes in constructor order (also the ``__eq__``/``__repr__``
#: field order, as a dataclass would have it).
_SPAN_FIELDS = ("name", "kind", "start", "duration", "phase", "device_id",
                "flops", "bytes_moved", "memory_high_water", "stream",
                "accounted", "labels", "children")


class Span:
    """One node of the span tree (all times are modeled seconds).

    A hand-written ``__slots__`` class, not a dataclass: one span is
    built per modeled charge, so construction sits on the accounting
    hot path (``dataclass(slots=True)`` needs Python 3.10).  It keeps a
    dataclass's keyword constructor, defaults, ``__eq__`` and
    ``__repr__``, but the :mod:`dataclasses` helpers (``asdict``,
    ``replace``, ``fields``) do not apply — use :meth:`to_dict`.

    ``stream`` names the stream of a scheduler-placed kernel (None =
    serial clock).  ``accounted`` is False for mirror spans of
    symmetric multi-device work: they appear in the tree/trace but not
    in the counters or totals.  ``labels`` are free-form tags (e.g.
    serve request ids) so concurrent requests sharing one recorder stay
    distinguishable in the Chrome trace.
    """

    __slots__ = _SPAN_FIELDS
    __hash__ = None  # mutable, compared by value (as a dataclass)

    def __init__(self, name: str, kind: str, start: float = 0.0,
                 duration: float = 0.0, phase: Optional[str] = None,
                 device_id: int = 0, flops: float = 0.0,
                 bytes_moved: float = 0.0, memory_high_water: int = 0,
                 stream: Optional[str] = None, accounted: bool = True,
                 labels: Tuple[str, ...] = (),
                 children: Optional[List["Span"]] = None) -> None:
        if kind not in SPAN_KINDS:
            raise ConfigurationError(
                f"unknown span kind {kind!r}; expected {SPAN_KINDS}")
        self.name = name
        self.kind = kind
        self.start = start
        self.duration = duration
        self.phase = phase
        self.device_id = device_id
        self.flops = flops
        self.bytes_moved = bytes_moved
        self.memory_high_water = memory_high_water
        self.stream = stream
        self.accounted = accounted
        self.labels = labels
        self.children = [] if children is None else children

    def _fields(self) -> Tuple:
        return tuple(getattr(self, f) for f in _SPAN_FIELDS)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in _SPAN_FIELDS)
        return f"{self.__class__.__qualname__}({body})"

    @property
    def end(self) -> float:
        return self.start + self.duration

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict:
        """Plain-data view (used by tests and the artifact metadata)."""
        return {
            "name": self.name, "kind": self.kind, "phase": self.phase,
            "start": self.start, "duration": self.duration,
            "device_id": self.device_id, "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "memory_high_water": self.memory_high_water,
            "stream": self.stream, "accounted": self.accounted,
            "labels": list(self.labels),
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class PhaseCounter:
    """Aggregated per-phase counters across one recorded run."""

    seconds: float = 0.0
    calls: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0

    def add(self, seconds: float, flops: float, bytes_moved: float) -> None:
        self.seconds += seconds
        self.calls += 1
        self.flops += flops
        self.bytes_moved += bytes_moved

    def to_dict(self) -> Dict:
        return {"seconds": self.seconds, "calls": self.calls,
                "flops": self.flops, "bytes_moved": self.bytes_moved}


class SpanRecorder:
    """Collects the span tree and counters for one (or more) runs.

    Attach to an executor with ``executor.attach_recorder(recorder)``;
    every subsequent :meth:`repro.gpu.device.SimulatedGPU.charge`
    lands here as a kernel span.  Kernel spans arriving with a phase
    different from the open step close that step and open a new one,
    so the step level reflects the algorithm's actual phase sequence
    (prng, sampling, the gemm/orth interleave, qrcp, qr, ...).
    """

    def __init__(self) -> None:
        self.runs: List[Span] = []
        self.clock = 0.0
        self._run: Optional[Span] = None
        self._step: Optional[Span] = None
        self.counters: Dict[str, PhaseCounter] = {}
        self.peak_memory_bytes = 0
        #: Races mirrored from an attached stream-scheduler race checker
        #: (dicts in the :meth:`repro.analysis.races.Race.to_dict`
        #: shape), so the artifact carries them next to the spans.
        self.races: List[Dict] = []
        #: Full :meth:`repro.analysis.races.RaceChecker.report` document
        #: of the run, set by the bench harness under ``race_check``.
        self.race_report: Optional[Dict] = None
        #: Registry name of the compute backend that ran the math
        #: (set by :meth:`note_backend`; None until a backend reports).
        self.backend_name: Optional[str] = None
        #: True when the backend feeds the modeled clock (figures must
        #: be bit-reproducible).
        self.backend_is_model: bool = True
        #: The watched backend, polled for real wall-clock at readout.
        self._backend = None
        #: Labels applied to every span recorded while a
        #: :meth:`labelled` context is open (e.g. a serve request id).
        self._labels: Tuple[str, ...] = ()

    @contextmanager
    def labelled(self, *labels: str):
        """Tag every span recorded inside the context with ``labels``.

        Serve-layer usage: the continuous batcher opens
        ``recorder.labelled(req_a, req_b, ...)`` around a coalesced
        kernel so the shared span lists every request riding the batch,
        while per-request pipelines run under their own single-id
        context.  Contexts nest; duplicate labels collapse.
        """
        previous = self._labels
        merged = list(previous)
        for lab in labels:
            lab = str(lab)
            if lab not in merged:
                merged.append(lab)
        self._labels = tuple(merged)
        try:
            yield self
        finally:
            self._labels = previous

    def note_backend(self, backend) -> None:
        """Register the :class:`repro.backends.base.ComputeBackend`
        whose kernels back this run.  The backend's name travels into
        BENCH artifacts, and its ``stats.wall_seconds`` — the *real*
        host/device wall-clock — is surfaced via
        :attr:`backend_wall_seconds` next to the modeled totals."""
        self._backend = backend
        self.backend_name = getattr(backend, "name", None)
        self.backend_is_model = bool(getattr(backend, "is_model", True))

    @property
    def backend_wall_seconds(self) -> float:
        """Real seconds the backend spent inside kernels (0.0 when no
        backend was registered, e.g. purely symbolic runs)."""
        if self._backend is None:
            return 0.0
        return float(self._backend.stats.wall_seconds)

    def record_race(self, race: Dict) -> None:
        """Mirror one detected race (called by the stream scheduler)."""
        self.races.append(dict(race))

    # -- run management ---------------------------------------------------
    def begin_run(self, name: str = "run") -> Span:
        """Open a run span; implicit for bare ``record_kernel`` calls."""
        if self._run is not None:
            raise ConfigurationError(
                f"run {self._run.name!r} is still open; end it first")
        self._run = Span(name=name, kind="run", start=self.clock,
                         labels=self._labels)
        self.runs.append(self._run)
        return self._run

    def end_run(self) -> Span:
        if self._run is None:
            raise ConfigurationError("no open run to end")
        self._close_step()
        run, self._run = self._run, None
        run.duration = self.clock - run.start
        return run

    def run_span(self, name: str = "run") -> "_RunContext":
        """``with recorder.run_span("fig11 m=50000"): ...``"""
        return _RunContext(self, name)

    # -- kernel ingestion (called by SimulatedGPU.charge) -----------------
    def record_kernel(self, phase: str, label: str, seconds: float,
                      flops: float = 0.0, bytes_moved: float = 0.0,
                      device_id: int = 0, memory_high_water: int = 0,
                      stream: Optional[str] = None,
                      start: Optional[float] = None,
                      accounted: bool = True,
                      labels: Sequence[str] = ()) -> Span:
        """Ingest one kernel charge.

        Without ``start`` the kernel is laid out sequentially at the
        current clock (the serial single-device model).  Stream-
        scheduled kernels pass their DAG-computed ``start`` (plus the
        ``stream`` name); the clock then advances to the max end seen,
        i.e. the critical path.  ``accounted=False`` records a mirror
        span (symmetric work on another device) that never touches the
        counters, the clock, the step's flop/byte aggregates, or the
        peak-memory aggregate.  ``labels`` (merged with any open
        :meth:`labelled` context) tag the span with request/run
        identifiers for the Chrome-trace export.

        This runs once per modeled charge, so past the checks it is a
        few attribute writes: no labels reuses the open context's tuple
        and the phase's counter is built once, then updated in place.
        """
        if phase not in PHASES:
            raise ConfigurationError(
                f"unknown phase {phase!r}; expected one of {PHASES}")
        if not 0.0 <= seconds < inf:
            raise ConfigurationError(
                f"span duration must be finite and non-negative, got "
                f"{seconds}")
        if start is not None and start < 0:
            raise ConfigurationError(f"negative span start: {start}")
        placed = self.clock if start is None else start
        if self._run is None:
            self.begin_run()
        step = self._step
        if step is None or step.phase != phase:
            self._close_step()
            step = self._step = Span(name=phase, kind="step", phase=phase,
                                     start=min(self.clock, placed),
                                     labels=self._labels)
            self._run.children.append(step)
        if labels:
            merged = list(self._labels)
            for lab in labels:
                lab = str(lab)
                if lab not in merged:
                    merged.append(lab)
            labels = tuple(merged)
        else:
            labels = self._labels
        kernel = Span(name=label or phase, kind="kernel", phase=phase,
                      start=placed, duration=seconds,
                      device_id=device_id, flops=flops,
                      bytes_moved=bytes_moved,
                      memory_high_water=memory_high_water,
                      stream=stream, accounted=accounted, labels=labels)
        step.children.append(kernel)
        if accounted:
            step.flops += flops
            step.bytes_moved += bytes_moved
            end = placed + seconds
            if end > self.clock:
                self.clock = end
            counter = self.counters.get(phase)
            if counter is None:
                counter = self.counters[phase] = PhaseCounter()
            counter.add(seconds, flops, bytes_moved)
            high_water = int(memory_high_water)
            if high_water > self.peak_memory_bytes:
                self.peak_memory_bytes = high_water
        return kernel

    def _close_step(self) -> None:
        if self._step is not None:
            self._step.duration = self.clock - self._step.start
            self._step = None

    # -- aggregate views ---------------------------------------------------
    @property
    def total(self) -> float:
        """Total modeled seconds across every recorded kernel."""
        return sum(c.seconds for c in self.counters.values())

    @property
    def total_flops(self) -> float:
        return sum(c.flops for c in self.counters.values())

    @property
    def total_bytes_moved(self) -> float:
        return sum(c.bytes_moved for c in self.counters.values())

    def achieved_gflops(self) -> float:
        """FLOPs over modeled seconds (0 when nothing was timed)."""
        t = self.total
        return self.total_flops / (t * 1e9) if t > 0 else 0.0

    def kernel_spans(self) -> Iterator[Span]:
        self._sync_open()
        for run in self.runs:
            for span in run.walk():
                if span.kind == "kernel":
                    yield span

    def spans(self) -> List[Span]:
        """The recorded run spans (open spans get a current-clock end)."""
        self._sync_open()
        return list(self.runs)

    def _sync_open(self) -> None:
        """Give still-open run/step spans an up-to-date duration."""
        if self._step is not None:
            self._step.duration = self.clock - self._step.start
        if self._run is not None:
            self._run.duration = self.clock - self._run.start

    def counters_dict(self) -> Dict[str, Dict]:
        """Per-phase counters in the paper's legend order."""
        return {p: self.counters[p].to_dict()
                for p in PHASES if p in self.counters}


class _RunContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.recorder.begin_run(self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.recorder.end_run()
