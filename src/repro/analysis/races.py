"""Happens-before race sanitizer for the stream scheduler.

PR 4 made multi-GPU modeled time the critical path through the
:class:`repro.gpu.streams.StreamScheduler` event DAG.  That buys the
paper's compute/communication overlap, but it also means a *missing*
``deps=`` edge no longer crashes anything: a chunked B-reduction that
should wait for its chunk's GEMM simply starts earlier, silently
under-reporting the modeled elapsed time that the Figure 15
strong-scaling comparison rests on.  This module is the correctness
tool a real stream runtime ships with — a dynamic data-race detector
over the schedule.

The model is the classic vector-clock happens-before relation:

- every ``(device, stream)`` pair is a *lane*; submissions on one lane
  are FIFO-ordered (the scheduler serializes them, exactly like a CUDA
  stream), and a submission occupying several lanes (a PCIe copy holds
  both the device copy engine and the shared host ``pcie`` lane) joins
  and advances all of them;
- a :class:`repro.gpu.streams.StreamEvent` carries the vector clock of
  the submission that produced it, so ``deps=[ev]`` merges that clock;
  ``after_all=True``, ``barrier()``, and ``overlap=False`` merge the
  clock of everything submitted so far;
- submissions declare the logical buffers they touch via ``reads=`` /
  ``writes=`` (names like ``B_chunk[0]``, ``R_bar``, ``Q_panel``); two
  accesses to the same buffer conflict when at least one writes, and a
  conflicting pair with neither side happens-before the other is a
  **race**.

The checker is observation-only: it never changes start times, charged
seconds, or the critical path.  ``raise_on_race=True`` (what
``REPRO_RACE_CHECK=1`` installs) raises :class:`repro.errors.RaceError`
at detection time; the default collects :class:`Race` records for the
machine-readable :meth:`RaceChecker.report` that ``repro-bench obs run
--race-check`` writes and CI renders.

The static twins of this sanitizer are lints RS109-RS111 (dropped
events, unordered transfers, missing ``reads=``/``writes=``
annotations — the annotations this checker consumes); together they
make the vector-clock evidence complete.  See
``docs/static_analysis.md`` for the rule reference and
``docs/performance.md`` for the stream model under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import RaceError

__all__ = ["Access", "Race", "RaceChecker", "REPORT_VERSION",
           "lane_name", "render_report", "write_report"]

#: Schema version of the machine-readable race report.
REPORT_VERSION = 1

Lane = Tuple[int, str]
#: A vector clock: lane -> number of that lane's submissions observed.
Clock = Dict[Lane, int]


def lane_name(lane: Lane) -> str:
    """Human/JSON form of a lane: ``"gpu0:compute"`` / ``"host:pcie"``."""
    device, stream = lane
    return f"{'host' if device < 0 else f'gpu{device}'}:{stream}"


@dataclass(frozen=True)
class Access:
    """One declared buffer access by one submission."""

    sub: int                   #: submission index (checker-local)
    buffer: str
    mode: str                  #: ``"R"`` or ``"W"``
    label: str
    phase: str
    lanes: Tuple[Lane, ...]
    clock: Tuple[Tuple[Lane, int], ...]  #: frozen vector clock

    def happens_before(self, other_clock: Clock) -> bool:
        """True when this access is ordered before a submission whose
        merged clock is ``other_clock`` (it saw all our increments)."""
        clock = dict(self.clock)
        return all(other_clock.get(lane, 0) >= clock[lane]
                   for lane in self.lanes)

    def to_dict(self) -> Dict:
        return {"sub": self.sub, "buffer": self.buffer, "mode": self.mode,
                "label": self.label, "phase": self.phase,
                "lanes": [lane_name(lane) for lane in self.lanes]}


@dataclass(frozen=True)
class Race:
    """One unordered conflicting pair found by the sanitizer."""

    buffer: str
    kind: str                  #: ``"W/W"``, ``"W/R"``, or ``"R/W"``
    first: Access              #: the earlier-submitted access
    second: Access

    @property
    def missing_edge(self) -> str:
        """What would have ordered the pair (the fix suggestion)."""
        return (f"order {self.first.label!r} before {self.second.label!r}: "
                f"pass the first submission's StreamEvent via deps= (or "
                f"after_all=True) to the second")

    def to_dict(self) -> Dict:
        return {"buffer": self.buffer, "kind": self.kind,
                "first": self.first.to_dict(),
                "second": self.second.to_dict(),
                "missing_edge": self.missing_edge}

    def render(self) -> str:
        return (f"race {self.kind} on {self.buffer!r}: "
                f"{self.first.label!r} [{self.first.phase} @ "
                f"{', '.join(lane_name(l) for l in self.first.lanes)}] vs "
                f"{self.second.label!r} [{self.second.phase} @ "
                f"{', '.join(lane_name(l) for l in self.second.lanes)}] "
                f"are unordered; {self.missing_edge}")


class RaceChecker:
    """Vector-clock happens-before checker over one stream schedule.

    Attach with
    :meth:`repro.gpu.streams.StreamScheduler.attach_race_checker`; the
    scheduler then feeds every submission's lanes, dependency clocks,
    and declared ``reads=``/``writes=`` through :meth:`on_submit`.
    Detection is exact for the declared accesses: no false negatives
    for annotated buffers, and no false positives — every reported pair
    really is unordered in the event DAG.
    """

    def __init__(self, raise_on_race: bool = False):
        self.raise_on_race = bool(raise_on_race)
        self.races: List[Race] = []
        self.submissions = 0
        self._lane_clocks: Dict[Lane, Clock] = {}
        self._lane_counts: Dict[Lane, int] = {}
        self._global: Clock = {}
        self._writes: Dict[str, List[Access]] = {}
        self._reads: Dict[str, List[Access]] = {}

    # -- clock plumbing ----------------------------------------------------
    @staticmethod
    def _merge(dst: Clock, src: Optional[Clock]) -> None:
        for lane, count in (src or {}).items():
            if count > dst.get(lane, 0):
                dst[lane] = count

    def global_clock(self) -> Clock:
        """Clock covering everything submitted so far (``barrier()``)."""
        return dict(self._global)

    # -- the checker entry point (called by StreamScheduler) ---------------
    def on_submit(self, *, label: str, phase: str,
                  lanes: Sequence[Lane],
                  dep_clocks: Iterable[Optional[Clock]] = (),
                  after_all: bool = False,
                  reads: Sequence[str] = (),
                  writes: Sequence[str] = ()) -> Clock:
        """Observe one submission; returns its vector clock (which the
        scheduler stashes on the returned :class:`StreamEvent`)."""
        lanes = tuple(dict.fromkeys(lanes))  # dedupe, keep order
        clock: Clock = {}
        for lane in lanes:
            self._merge(clock, self._lane_clocks.get(lane))
        for dep in dep_clocks:
            self._merge(clock, dep)
        if after_all:
            self._merge(clock, self._global)
        for lane in lanes:
            self._lane_counts[lane] = self._lane_counts.get(lane, 0) + 1
            clock[lane] = self._lane_counts[lane]
        sub = self.submissions
        self.submissions += 1
        frozen = tuple(sorted(clock.items()))
        # Writes first: a submission reading and writing one buffer is a
        # single atomic access from the schedule's point of view.
        for buffer in writes:
            self._access(Access(sub, str(buffer), "W", label or phase,
                                phase, lanes, frozen), clock)
        for buffer in reads:
            self._access(Access(sub, str(buffer), "R", label or phase,
                                phase, lanes, frozen), clock)
        for lane in lanes:
            self._lane_clocks[lane] = dict(clock)
        self._merge(self._global, clock)
        return clock

    def _access(self, acc: Access, clock: Clock) -> None:
        conflicting = self._writes.get(acc.buffer, [])
        if acc.mode == "W":
            conflicting = conflicting + self._reads.get(acc.buffer, [])
        for prev in conflicting:
            if prev.sub == acc.sub:
                continue
            if not prev.happens_before(clock):
                race = Race(buffer=acc.buffer,
                            kind=f"{prev.mode}/{acc.mode}",
                            first=prev, second=acc)
                self.races.append(race)
                if self.raise_on_race:
                    raise RaceError(race.render(), races=[race])
        store = self._writes if acc.mode == "W" else self._reads
        store.setdefault(acc.buffer, []).append(acc)

    # -- results -----------------------------------------------------------
    def check(self) -> None:
        """Raise :class:`RaceError` when any race was recorded."""
        if self.races:
            raise RaceError(
                f"{len(self.races)} unordered conflicting access pair(s) "
                "in the stream schedule:\n"
                + "\n".join(r.render() for r in self.races),
                races=list(self.races))

    def report(self) -> Dict:
        """Machine-readable summary (the race-report artifact)."""
        buffers = sorted(set(self._writes) | set(self._reads))
        return {
            "version": REPORT_VERSION,
            "race_count": len(self.races),
            "races": [r.to_dict() for r in self.races],
            "submissions": self.submissions,
            "buffers": buffers,
            "lanes": [lane_name(lane)
                      for lane in sorted(self._lane_counts)],
        }


def render_report(report: Dict) -> str:
    """Text table of one :meth:`RaceChecker.report` document (what the
    CI job summary shows)."""
    races = report.get("races", [])
    head = (f"race sanitizer: {len(races)} race(s) over "
            f"{report.get('submissions', 0)} submission(s), "
            f"{len(report.get('buffers', []))} buffer(s)")
    if note := report.get("note"):
        head += f" [{note}]"
    if not races:
        return head + "\n0 races"
    widths_rows = [("buffer", "kind", "first", "second", "missing edge")]
    for r in races:
        first, second = r["first"], r["second"]
        widths_rows.append((
            r["buffer"], r["kind"],
            f"{first['label']} ({first['phase']} @ "
            f"{','.join(first['lanes'])})",
            f"{second['label']} ({second['phase']} @ "
            f"{','.join(second['lanes'])})",
            r["missing_edge"]))
    widths = [max(len(row[i]) for row in widths_rows) for i in range(4)]
    lines = [head]
    for row in widths_rows:
        lines.append("  ".join(col.ljust(w)
                               for col, w in zip(row[:4], widths))
                     + "  " + row[4])
    return "\n".join(lines)


def write_report(path: str, report: Dict) -> None:
    """Write the machine-readable race report as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
