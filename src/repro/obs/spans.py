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

Recording does not build the tree.  Each charge appends one tuple to
a flat log and updates the clock, the per-phase counters and the
peak-memory mark; opening and ending a run append a marker.  The tree
is built from the log the first time something reads it
(:attr:`SpanRecorder.runs`, :meth:`SpanRecorder.spans`,
:meth:`SpanRecorder.kernel_spans` and the Chrome export on top of
them), and each later read converts only the entries logged since.  A
run nobody reads, such as every point of the Figure 11-15 sweeps,
builds no span at all.

A long-lived caller keeps its memory bounded with a
:class:`RecorderSink`: one recorder per unit of work, and only the
most recent ones retained.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from math import inf
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..gpu.trace import PHASES

__all__ = ["Span", "PhaseCounter", "SpanRecorder", "RecorderSink"]

SPAN_KINDS = ("run", "step", "kernel")


#: Span attributes in constructor order (also the ``__eq__``/``__repr__``
#: field order, as a dataclass would have it).
_SPAN_FIELDS = ("name", "kind", "start", "duration", "phase", "device_id",
                "flops", "bytes_moved", "memory_high_water", "stream",
                "accounted", "labels", "children")


class Span:
    """One node of the span tree (all times are modeled seconds).

    A hand-written ``__slots__`` class, not a dataclass: reading a
    recorder builds one span per logged kernel, so a large trace builds
    many, and slots keep them small (``dataclass(slots=True)`` needs
    Python 3.10).  It keeps a dataclass's keyword constructor,
    defaults, ``__eq__`` and ``__repr__``, but the :mod:`dataclasses`
    helpers (``asdict``, ``replace``, ``fields``) do not apply — use
    :meth:`to_dict`.

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


def _merge(previous: Tuple[str, ...], labels: Sequence) -> Tuple[str, ...]:
    """``previous`` followed by the new (stringified) ``labels``."""
    merged = list(previous)
    for lab in labels:
        lab = str(lab)
        if lab not in merged:
            merged.append(lab)
    return tuple(merged)


#: Length of a kernel entry in the log: ``(phase, name, start, seconds,
#: flops, bytes_moved, device_id, memory_high_water, stream, accounted,
#: context, labels)``.  ``start`` is where the kernel was placed (the
#: clock, unless the caller passed one); ``context`` is the open
#: :meth:`SpanRecorder.labelled` tuple, which a step opened by this
#: kernel takes; ``labels`` are the kernel's own (the context plus any
#: ``labels=`` of the call).  The log's other entries are run markers:
#: ``(name, start, labels)`` opens a run and ``(end,)`` ends it.
_KERNEL_ENTRY = 12


class SpanRecorder:
    """Collects the kernel log, counters and span tree of runs.

    Attach to an executor with ``executor.attach_recorder(recorder)``;
    every subsequent :meth:`repro.gpu.device.SimulatedGPU.charge`
    lands here through :meth:`record_kernel`.  In the tree a kernel
    arriving with a phase different from the open step closes that
    step and opens a new one, so the step level reflects the
    algorithm's actual phase sequence (prng, sampling, the gemm/orth
    interleave, qrcp, qr, ...).

    Recording only appends to a log; the tree is built when it is
    read.  One thread writes (records, opens and ends runs, enters
    :meth:`labelled`); any thread may read at any time.  Reads are
    serialized by a lock and convert only entries already appended, so
    a read that races a write loses nothing: the next read picks up
    whatever it missed.
    """

    def __init__(self, clock: float = 0.0) -> None:
        #: Modeled seconds: the end of the critical path so far.  A
        #: recorder can start past 0 to continue another's timeline
        #: (see :class:`RecorderSink`).
        self.clock = clock
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
        # -- writer side: the open run's start marker, and the log of
        # entries not yet converted into spans.
        self._open: Optional[tuple] = None
        self._log: Deque[tuple] = deque()
        # -- reader side: the tree, and where conversion stopped.
        self._read_lock = threading.Lock()
        self._runs: List[Span] = []
        self._run: Optional[Span] = None       # the last run, while open
        self._step: Optional[Span] = None      # its last step
        self._read_clock = clock               # clock after the last entry

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
        self._labels = _merge(previous, labels)
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
    def begin_run(self, name: str = "run") -> None:
        """Open a run; implicit for bare ``record_kernel`` calls."""
        if self._open is not None:
            raise ConfigurationError(
                f"run {self._open[0]!r} is still open; end it first")
        self._open = (name, self.clock, self._labels)
        self._log.append(self._open)

    def end_run(self) -> None:
        if self._open is None:
            raise ConfigurationError("no open run to end")
        self._open = None
        self._log.append((self.clock,))

    @contextmanager
    def run_span(self, name: str = "run"):
        """``with recorder.run_span("fig11 m=50000"): ...``"""
        self.begin_run(name)
        try:
            yield self
        finally:
            self.end_run()

    # -- kernel ingestion (called by SimulatedGPU.charge) -----------------
    def record_kernel(self, phase: str, label: str, seconds: float,
                      flops: float = 0.0, bytes_moved: float = 0.0,
                      device_id: int = 0, memory_high_water: int = 0,
                      stream: Optional[str] = None,
                      start: Optional[float] = None,
                      accounted: bool = True,
                      labels: Sequence[str] = ()) -> None:
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

        This runs once per modeled charge, so past the checks it only
        appends one log entry and updates the clock, the phase's
        counter and the peak-memory mark.  It builds no span.
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
        if self._open is None:
            self.begin_run()
        context = self._labels
        self._log.append((phase, label or phase, placed, seconds, flops,
                          bytes_moved, device_id, memory_high_water, stream,
                          accounted, context,
                          _merge(context, labels) if labels else context))
        if accounted:
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

    # -- the span tree, built on read -------------------------------------
    @property
    def runs(self) -> List[Span]:
        """The run spans, built from the log up to now (the live list)."""
        return self._build()

    def spans(self) -> List[Span]:
        """The recorded run spans (open spans end at the current clock)."""
        return list(self._build())

    def kernel_spans(self) -> Iterator[Span]:
        for run in self._build():
            for step in run.children:
                yield from step.children

    def _build(self) -> List[Span]:
        """Convert the entries logged since the last read into spans.

        The reader pops as many entries as the log holds when it starts,
        so whatever the writer appends meanwhile waits for the next
        read, and each entry is freed as soon as its span exists.  A
        still-open run and its last step get a duration up to the clock
        of the last converted entry (the current clock, when no write is
        in flight).
        """
        with self._read_lock:
            log = self._log
            run, step, clock = self._run, self._step, self._read_clock
            for _ in range(len(log)):
                entry = log.popleft()
                if len(entry) == _KERNEL_ENTRY:
                    (phase, name, start, seconds, flops, bytes_moved,
                     device_id, high_water, stream, accounted, context,
                     labels) = entry
                    if step is None or step.phase != phase:
                        if step is not None:
                            step.duration = clock - step.start
                        step = Span(name=phase, kind="step", phase=phase,
                                    start=min(clock, start),
                                    labels=context)
                        run.children.append(step)
                    step.children.append(Span(
                        name=name, kind="kernel", phase=phase, start=start,
                        duration=seconds, device_id=device_id, flops=flops,
                        bytes_moved=bytes_moved,
                        memory_high_water=high_water, stream=stream,
                        accounted=accounted, labels=labels))
                    if accounted:
                        step.flops += flops
                        step.bytes_moved += bytes_moved
                        finish = start + seconds
                        if finish > clock:
                            clock = finish
                elif len(entry) == 3:
                    name, clock, labels = entry
                    run = Span(name=name, kind="run", start=clock,
                               labels=labels)
                    self._runs.append(run)
                    step = None
                else:
                    (end,) = entry
                    if step is not None:
                        step.duration = end - step.start
                    run.duration = end - run.start
                    run = step = None
            if run is not None:
                if step is not None:
                    step.duration = clock - step.start
                run.duration = clock - run.start
            self._run, self._step, self._read_clock = run, step, clock
            return self._runs

    def counters_dict(self) -> Dict[str, Dict]:
        """Per-phase counters in the paper's legend order."""
        return {p: self.counters[p].to_dict()
                for p in PHASES if p in self.counters}


class RecorderSink:
    """The recorders of the last ``keep`` units of work, and no more.

    A long-lived caller (the serve layer, one recorder per batch plan)
    gives each unit of work a fresh :class:`SpanRecorder`, so every
    recorder has a single writer, and hands it here with :meth:`add`
    once that work has returned or raised.  The sink keeps the last
    ``keep`` recorders with their logs unbuilt and frees older ones,
    so what it holds is set by ``keep``, not by how much work ran.

    Reads take the forms a recorder's do — :attr:`runs`,
    :meth:`spans`, :meth:`kernel_spans` and the Chrome export on top
    of them — and build the trees of the retained recorders only.
    :attr:`clock` is where the last recorder handed in stopped; a
    recorder created as ``SpanRecorder(clock=sink.clock)`` lays its
    runs out after that one's, so the retained runs sit on one modeled
    timeline, as if one recorder had logged them all.
    """

    def __init__(self, keep: int) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.clock = 0.0
        self._recorders: Deque[SpanRecorder] = deque(maxlen=keep)

    def add(self, recorder: SpanRecorder) -> None:
        """Retain ``recorder``; the oldest one beyond ``keep`` is freed.

        One thread adds, after the recorder's writer has finished.
        """
        self._recorders.append(recorder)
        self.clock = recorder.clock

    def _retained(self) -> Tuple[SpanRecorder, ...]:
        # One C-level copy: a read racing add() sees a whole snapshot.
        return tuple(self._recorders)

    @property
    def runs(self) -> List[Span]:
        """The run spans of the retained recorders, oldest first."""
        return self.spans()

    def spans(self) -> List[Span]:
        """The run spans of the retained recorders, oldest first."""
        return [run for rec in self._retained() for run in rec.runs]

    def kernel_spans(self) -> Iterator[Span]:
        for rec in self._retained():
            yield from rec.kernel_spans()
