"""Event/stream scheduler for the simulated multi-GPU runtime.

Real multi-GPU pipelines issue work on per-device CUDA streams and
order it with events: the local GEMM of the next chunk runs on the
``compute`` stream while the previous chunk's partial result is being
gathered over PCIe, so wall-clock is the **critical path** through the
resulting DAG rather than the sum of kernel times.  This module models
exactly that for the simulated devices of
:class:`repro.gpu.multigpu.MultiGPUExecutor`:

- every device ``0..ng-1`` owns the named streams
  :data:`DEVICE_STREAMS` (``compute``, ``comms``, ``h2d``, ``d2h``);
- the host (:data:`HOST`, device id ``-1``) owns ``cpu`` (the
  accumulation/panel work) and ``pcie`` — the shared root complex that
  serializes every transfer, reproducing the paper's PCIe reduction
  cost model (:meth:`repro.gpu.memory.TransferModel.reduce_seconds`);
- a submission starts at the max of its stream-ready times, its
  explicit dependency events, and — with ``overlap=False`` — the
  global frontier, which degenerates the schedule to the old serial
  sum.

Accounting is unchanged from the serial model: each submission charges
its modeled seconds, FLOPs and bytes to the master
:class:`repro.gpu.trace.TimeLine` exactly once, so the per-phase
breakdown is identical under ``overlap=on`` and ``overlap=off``; only
:attr:`StreamScheduler.elapsed` (the DAG's critical path) differs.
Symmetric per-device work can be mirrored onto the other devices'
streams as *unaccounted* spans so the Chrome-trace export shows every
device's occupancy without double counting.

The scheduler operates purely on the *modeled* clock: placements are
derived from shapes and the kernel rate models, never from which
:mod:`repro.backends` compute engine executes the arithmetic, so
schedules (and fig15 totals) are identical under every ``--backend``.
Missing ``deps=`` edges are caught two ways: statically by lints
RS109-RS111 and dynamically by the happens-before race sanitizer
(:mod:`repro.analysis.races`); see ``docs/performance.md`` for the
scheduling model and ``docs/static_analysis.md`` for the checkers.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .trace import PHASES, TimeLine

__all__ = ["HOST", "DEVICE_STREAMS", "HOST_STREAMS", "StreamEvent",
           "StreamScheduler"]

#: Device id of the host-side resources (CPU work, shared PCIe).
HOST = -1

#: Streams owned by every simulated device.
DEVICE_STREAMS = ("compute", "comms", "h2d", "d2h")

#: Streams owned by the host: CPU math and the shared PCIe root
#: complex (transfers name it as an extra resource, so concurrent
#: copies from different devices serialize, as on the paper's node).
HOST_STREAMS = ("cpu", "pcie")

ResourceKey = Tuple[int, str]


class StreamEvent:
    """Completion marker of one submission, in modeled seconds.

    When a race checker is attached, the event also carries the vector
    clock of the submission that produced it, so passing it via
    ``deps=`` establishes a happens-before edge the sanitizer sees.
    """

    __slots__ = ("time", "label", "clock")

    def __init__(self, time: float, label: str = "", clock=None):
        self.time = float(time)
        self.label = label
        self.clock = clock  # Optional[Dict[ResourceKey, int]]

    def __repr__(self) -> str:
        return f"StreamEvent(t={self.time:.6g}, {self.label!r})"


class StreamScheduler:
    """Critical-path clock over per-device streams and explicit events.

    ``overlap=False`` serializes every submission after the current
    frontier, making :attr:`elapsed` equal the plain sum of charged
    seconds — the pre-stream serial model, bit for bit.
    """

    def __init__(self, ng: int, overlap: bool = True,
                 timeline: Optional[TimeLine] = None):
        if ng < 1:
            raise ConfigurationError(f"ng must be >= 1, got {ng}")
        self.ng = ng
        self.overlap = bool(overlap)
        #: Master timeline: every accounted submission charges here
        #: once, so phase sums match the serial model exactly.
        self.timeline = timeline if timeline is not None else TimeLine()
        self.recorder = None  # Optional[repro.obs.spans.SpanRecorder]
        #: Optional ``device_id -> memory high-water`` probe used to
        #: decorate recorded spans (set by the executor).
        self.memory_probe: Optional[Callable[[int], int]] = None
        self._ready: Dict[ResourceKey, float] = {}
        self._busy: Dict[ResourceKey, float] = {}
        self._frontier = 0.0
        self._submissions = 0
        #: Optional repro.analysis.races.RaceChecker observing every
        #: submission's declared ``reads=``/``writes=`` buffer accesses.
        self.race_checker = None

    # -- wiring ------------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Mirror every subsequent submission into ``recorder`` (pass
        ``None`` to detach)."""
        self.recorder = recorder

    def attach_race_checker(self, checker) -> None:
        """Feed every subsequent submission through a happens-before
        race ``checker`` (:class:`repro.analysis.races.RaceChecker`;
        pass ``None`` to detach).  Observation-only: start times,
        charged seconds, and :attr:`elapsed` are unaffected."""
        self.race_checker = checker

    def _key(self, device: int, stream: str) -> ResourceKey:
        if device != HOST and not 0 <= device < self.ng:
            raise ConfigurationError(
                f"unknown device {device!r}; expected {HOST} (host) or "
                f"0..{self.ng - 1}")
        streams = HOST_STREAMS if device == HOST else DEVICE_STREAMS
        if stream not in streams:
            raise ConfigurationError(
                f"unknown stream {stream!r} for device {device}; "
                f"expected one of {streams}")
        return (device, stream)

    # -- submission --------------------------------------------------------
    def submit(self, phase: str, seconds: float, *, device: int = 0,
               stream: str = "compute",
               deps: Sequence[StreamEvent] = (),
               resources: Sequence[ResourceKey] = (),
               after_all: bool = False, account: bool = True,
               label: str = "", flops: float = 0.0,
               bytes_moved: float = 0.0,
               reads: Sequence[str] = (),
               writes: Sequence[str] = ()) -> StreamEvent:
        """Place one piece of work on ``(device, stream)``.

        ``resources`` lists extra ``(device, stream)`` pairs the work
        occupies (a PCIe copy holds both the device's copy engine and
        the shared host ``pcie`` lane).  ``deps`` are events that must
        complete first; ``after_all=True`` additionally waits for
        everything in flight (a value-dependent join).  ``account=False``
        records the span for the trace without charging the timeline —
        the mirror half of symmetric multi-device work.

        ``reads=``/``writes=`` name the logical buffers the work
        touches (e.g. ``"B_chunk[0]"``, ``"R_bar"``) for the attached
        race checker; they have no effect on scheduling.
        """
        keys = [self._key(device, stream)]
        keys += [self._key(d, s) for d, s in resources]
        start = self._start_time(keys, deps, after_all)
        clock = self._race_check(phase, label, keys, deps, after_all,
                                 reads, writes)
        return self._place(phase, seconds, keys, start,
                           record_on=[(device, stream, account)],
                           label=label, flops=flops,
                           bytes_moved=bytes_moved, account=account,
                           clock=clock)

    def submit_group(self, phase: str, seconds: float, *,
                     placements: Sequence[ResourceKey],
                     deps: Sequence[StreamEvent] = (),
                     after_all: bool = False, label: str = "",
                     flops: float = 0.0,
                     bytes_moved: float = 0.0,
                     reads: Sequence[str] = (),
                     writes: Sequence[str] = ()) -> StreamEvent:
        """Symmetric work starting together on several streams.

        The devices run in lockstep (same local shapes), so the work is
        charged **once** — first placement accounted, the rest recorded
        as unaccounted mirror spans for the per-device trace.  With
        ``overlap=False`` the mirrors are dropped *after* validation:
        every placement still goes through :meth:`_key`, so a typo'd
        stream name fails identically in serialized and overlapped
        mode.
        """
        if not placements:
            raise ConfigurationError("submit_group needs placements")
        keys = [self._key(d, s) for d, s in placements]
        if not self.overlap:
            keys = keys[:1]
        start = self._start_time(keys, deps, after_all)
        clock = self._race_check(phase, label, keys, deps, after_all,
                                 reads, writes)
        record_on = [(d, s, i == 0)
                     for i, (d, s) in enumerate(placements[:len(keys)])]
        return self._place(phase, seconds, keys, start,
                           record_on=record_on, label=label, flops=flops,
                           bytes_moved=bytes_moved, account=True,
                           clock=clock)

    def barrier(self) -> StreamEvent:
        """Event completing when everything submitted so far has."""
        clock = (self.race_checker.global_clock()
                 if self.race_checker is not None else None)
        return StreamEvent(self._frontier, "barrier", clock=clock)

    def _race_check(self, phase: str, label: str,
                    keys: List[ResourceKey],
                    deps: Sequence[StreamEvent], after_all: bool,
                    reads: Sequence[str],
                    writes: Sequence[str]) -> Optional[Dict]:
        """Feed one submission to the attached race checker (if any)
        and return its vector clock for the completion event.

        ``overlap=False`` serializes every submission after the global
        frontier, so the checker sees it as ``after_all=True`` — a
        serialized schedule can never race.  Newly detected races are
        mirrored into the attached span recorder so they land in the
        run artifact next to the spans they involve.
        """
        checker = self.race_checker
        if checker is None:
            return None
        dep_clocks = [ev.clock for ev in deps
                      if isinstance(ev, StreamEvent)
                      and ev.clock is not None]
        before = len(checker.races)
        try:
            clock = checker.on_submit(
                label=label, phase=phase, lanes=keys,
                dep_clocks=dep_clocks,
                after_all=after_all or not self.overlap,
                reads=reads, writes=writes)
        finally:
            if self.recorder is not None:
                for race in checker.races[before:]:
                    self.recorder.record_race(race.to_dict())
        return clock

    def _start_time(self, keys: List[ResourceKey],
                    deps: Sequence[StreamEvent],
                    after_all: bool) -> float:
        start = 0.0
        for k in keys:
            start = max(start, self._ready.get(k, 0.0))
        for ev in deps:
            if not isinstance(ev, StreamEvent):
                raise ConfigurationError(
                    f"deps must be StreamEvents, got {type(ev).__name__}")
            start = max(start, ev.time)
        if after_all or not self.overlap:
            start = max(start, self._frontier)
        return start

    def _place(self, phase: str, seconds: float, keys: List[ResourceKey],
               start: float, record_on: List[Tuple[int, str, bool]],
               label: str, flops: float, bytes_moved: float,
               account: bool, clock: Optional[Dict] = None) -> StreamEvent:
        if phase not in PHASES:
            raise ConfigurationError(
                f"unknown phase {phase!r} submitted to the stream "
                f"scheduler; expected one of {PHASES}")
        if not 0.0 <= seconds < inf:
            raise ConfigurationError(
                f"submitted time must be finite and non-negative, got "
                f"{seconds}")
        end = start + seconds
        for k in keys:
            self._ready[k] = end
            self._busy[k] = self._busy.get(k, 0.0) + seconds
        self._frontier = max(self._frontier, end)
        self._submissions += 1
        if account:
            self.timeline.charge(phase, seconds, flops, bytes_moved)
        if self.recorder is not None:
            for device, stream, accounted in record_on:
                hw = (self.memory_probe(device)
                      if self.memory_probe is not None and device >= 0
                      else 0)
                self.recorder.record_kernel(
                    phase=phase, label=label or phase, seconds=seconds,
                    flops=flops, bytes_moved=bytes_moved,
                    device_id=device, memory_high_water=hw,
                    stream=stream, start=start, accounted=accounted)
        return StreamEvent(end, label, clock=clock)

    # -- introspection -----------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Critical-path end time: the max end over every submission."""
        return self._frontier

    @property
    def submissions(self) -> int:
        return self._submissions

    def busy_seconds(self, device: int, stream: str) -> float:
        """Total seconds occupying one stream (its utilization)."""
        return self._busy.get(self._key(device, stream), 0.0)

    # -- replay ------------------------------------------------------------
    def state(self) -> Dict:
        """Snapshot of the schedule clock, for comparing schedules.

        Resource keys are stringified as ``"device:stream"`` so the
        snapshot survives ``json.dumps``/``json.loads`` unchanged.
        """
        return {"ready": {f"{d}:{s}": t
                          for (d, s), t in self._ready.items()},
                "busy": {f"{d}:{s}": t
                         for (d, s), t in self._busy.items()},
                "frontier": self._frontier,
                "submissions": self._submissions}

    def reset(self, timeline: Optional[TimeLine] = None) -> None:
        """Fresh clock (and optionally a fresh master timeline)."""
        self._ready.clear()
        self._busy.clear()
        self._frontier = 0.0
        self._submissions = 0
        if timeline is not None:
            self.timeline = timeline
