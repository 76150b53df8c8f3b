"""Chrome trace-event export of a recorded run.

Dump with :func:`write_chrome_trace` and open the file in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: the run and its
phase steps appear on a "run" thread, the kernels on one thread per
phase, all in microseconds of modeled time.

Stream-scheduled kernels (multi-GPU runs through
:mod:`repro.gpu.streams`) additionally land on one *process per
device* — ``gpu0``, ``gpu1``, ... plus ``host`` — with one thread per
named stream (``compute``, ``comms``, ``h2d``, ``d2h`` / ``cpu``,
``pcie``), so Perfetto renders the actual compute-communication
overlap per device.

The emitted document is the object form of the trace-event format::

    {"traceEvents": [...], "displayTimeUnit": "ms"}

with metadata ("M") events naming the process and threads and complete
("X") events for every span.  :func:`validate_chrome_trace` checks the
structural contract the viewers rely on and is exercised by the
exporter round-trip tests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Union

from ..errors import ConfigurationError
from ..gpu.trace import PHASES
from .spans import RecorderSink, Span, SpanRecorder

__all__ = ["spans_to_chrome", "chrome_document", "write_chrome_trace",
           "validate_chrome_trace"]

#: Thread ids: 0 is the run/step thread, phases follow in legend order.
_RUN_TID = 0
_PHASE_TIDS = {name: i + 1 for i, name in enumerate(PHASES)}

#: Stream-scheduled kernels get one process per device: pid 1 is the
#: host (cpu/pcie streams), GPUs start at pid 2 (gpu0 -> 2, gpu1 -> 3,
#: ...), leaving pid 0 for the run/phase layout above.
_HOST_PID = 1
_DEVICE_PID_BASE = 2
_STREAM_TIDS = {"compute": 0, "comms": 1, "h2d": 2, "d2h": 3,
                "cpu": 0, "pcie": 1}


def _meta(pid: int, tid: int, name: str, value: str) -> Dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": name,
            "args": {"name": value}}


def _stream_track(span: Span) -> tuple:
    """(pid, tid, process name) of a stream-scheduled kernel span."""
    if span.device_id < 0:
        return _HOST_PID, _STREAM_TIDS[span.stream], "host"
    return (_DEVICE_PID_BASE + span.device_id, _STREAM_TIDS[span.stream],
            f"gpu{span.device_id}")


def spans_to_chrome(recorder: Union[SpanRecorder, RecorderSink, List[Span]],
                    process_name: str = "simulated-gpu",
                    pid: int = 0) -> List[Dict]:
    """Flatten a recorder's (or a sink's) span tree into trace events."""
    runs = recorder.spans() \
        if isinstance(recorder, (SpanRecorder, RecorderSink)) \
        else list(recorder)
    events: List[Dict] = [_meta(pid, _RUN_TID, "process_name", process_name),
                          _meta(pid, _RUN_TID, "thread_name", "run")]
    for phase, tid in _PHASE_TIDS.items():
        events.append(_meta(pid, tid, "thread_name", phase))
    seen_tracks = set()
    body: List[Dict] = []
    for run in runs:
        for span in run.walk():
            if span.kind == "kernel" and span.stream is not None:
                span_pid, tid, pname = _stream_track(span)
                if (span_pid, -1) not in seen_tracks:
                    seen_tracks.add((span_pid, -1))
                    events.append(_meta(span_pid, 0, "process_name", pname))
                if (span_pid, tid) not in seen_tracks:
                    seen_tracks.add((span_pid, tid))
                    events.append(_meta(span_pid, tid, "thread_name",
                                        span.stream))
            else:
                span_pid = pid
                tid = (_RUN_TID if span.kind in ("run", "step")
                       else _PHASE_TIDS[span.phase])
            event = {
                "ph": "X",
                "pid": span_pid,
                "tid": tid,
                "name": span.name,
                "cat": span.phase or span.kind,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
            }
            if span.kind == "kernel":
                event["args"] = {
                    "device_id": span.device_id,
                    "flops": span.flops,
                    "bytes_moved": span.bytes_moved,
                    "memory_high_water": span.memory_high_water,
                    "accounted": span.accounted,
                }
                if span.stream is not None:
                    event["args"]["stream"] = span.stream
                if span.labels:
                    event["args"]["labels"] = list(span.labels)
            elif span.labels:
                event["args"] = {"labels": list(span.labels)}
            body.append(event)
    return events + body


def chrome_document(events: List[Dict]) -> Dict:
    """Wrap trace events in the JSON-object container format."""
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str,
                       recorder: Union[SpanRecorder, RecorderSink,
                                       List[Span]],
                       process_name: str = "simulated-gpu") -> Dict:
    """Export a recorder to ``path``; returns the written document."""
    events = spans_to_chrome(recorder, process_name=process_name)
    validate_chrome_trace(events)
    doc = chrome_document(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def validate_chrome_trace(events: List[Dict]) -> None:
    """Check the trace-event structural contract.

    Raises :class:`repro.errors.ConfigurationError` on the first
    malformed event; returning means every event would load in
    Perfetto / ``chrome://tracing``.
    """
    if not isinstance(events, list) or not events:
        raise ConfigurationError("trace must be a non-empty event list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"event {i} is not an object: {ev!r}")
        ph = ev.get("ph")
        if ph not in ("M", "X"):
            raise ConfigurationError(
                f"event {i} has unsupported phase type {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                raise ConfigurationError(f"event {i} is missing {key!r}")
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                raise ConfigurationError(
                    f"metadata event {i} needs an args object")
            continue
        for key in ("ts", "dur"):
            value = ev.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"event {i} has invalid {key}: {value!r}")
