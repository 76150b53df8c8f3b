"""Run-level observability for the simulated-GPU reproduction.

Layers (see ``docs/observability.md``):

- :mod:`repro.obs.spans` — a flat log of every modeled kernel, next
  to the per-phase counters (:class:`repro.gpu.trace.PhaseCounter`:
  seconds, calls, FLOPs, bytes moved) that each device's
  :class:`repro.gpu.trace.TimeLine` keeps; kernels carry the device
  memory high-water mark, and the hierarchical run → step → kernel
  span tree is built from the log when it is read.  A
  :class:`~repro.obs.spans.RecorderSink` keeps the recorders of the
  most recent units of work (serve plans) and frees older ones.
- :mod:`repro.obs.chrome` — Chrome trace-event export of a recorded
  run (loadable in Perfetto / ``chrome://tracing``).
- :mod:`repro.obs.artifact` — the versioned ``BENCH_*.json`` series
  artifact and the bench-side :func:`~repro.obs.artifact.attach_series`
  publisher.
- :mod:`repro.obs.diff` — the per-phase artifact diff behind the CI
  perf-regression gate (``repro-bench obs diff``).
"""

from ..gpu.trace import PhaseCounter
from .spans import RecorderSink, Span, SpanRecorder
from .chrome import (chrome_document, spans_to_chrome,
                     validate_chrome_trace, write_chrome_trace)
from .artifact import (ARTIFACT_KIND, SCHEMA_VERSION, attach_series,
                       attached_records, build_artifact, figure_record,
                       load_artifact, point, point_key,
                       points_from_breakdown, points_from_series,
                       reset_attached, to_jsonable, validate_artifact,
                       write_artifact, write_attached)
from .diff import (DEFAULT_FLOOR, DEFAULT_TOLERANCE, DiffEntry,
                   DiffResult, diff_artifacts, render_diff)

__all__ = [
    "Span", "PhaseCounter", "SpanRecorder", "RecorderSink",
    "spans_to_chrome", "chrome_document", "write_chrome_trace",
    "validate_chrome_trace",
    "SCHEMA_VERSION", "ARTIFACT_KIND", "to_jsonable", "point",
    "points_from_breakdown", "points_from_series", "figure_record",
    "build_artifact", "write_artifact", "load_artifact",
    "validate_artifact", "point_key", "attach_series", "reset_attached",
    "attached_records", "write_attached",
    "DiffEntry", "DiffResult", "diff_artifacts", "render_diff",
    "DEFAULT_TOLERANCE", "DEFAULT_FLOOR",
]
