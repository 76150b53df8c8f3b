"""Simulated GPU substrate.

The paper's experiments ran on NVIDIA Tesla K40c ("Kepler") GPUs with
cuBLAS/cuRAND/cuFFT.  This package provides a *simulated* device that
executes every kernel numerically with NumPy while accruing a modeled
execution time from per-kernel rate models calibrated against the
measurements the paper itself reports (see ``DESIGN.md`` section 5).
A symbolic (shape-only) mode runs the same code paths without touching
data, so paper-scale performance sweeps are cheap.

Modules
-------
- :mod:`repro.gpu.specs` — hardware constants and calibration anchors.
- :mod:`repro.gpu.kernels` — kernel rate models (seconds per call).
- :mod:`repro.gpu.trace` — per-phase counters (the device timeline).
- :mod:`repro.gpu.memory` — device memory accounting and transfers.
- :mod:`repro.gpu.device` — the simulated device + executors.
- :mod:`repro.gpu.streams` — stream/event scheduler (critical path).
- :mod:`repro.gpu.multigpu` — 1D block-row multi-GPU runtime (Fig. 4).
"""

from .specs import (GPUSpec, KEPLER_K40C, PASCAL_P100_PROJECTION,
                    AnchorCurve, scaled_spec)
from .kernels import KernelModel
from .trace import TimeLine, PhaseCounter, PHASES
from .memory import DeviceMemory, TransferModel
from .device import SymArray, SimulatedGPU, NumpyExecutor, GPUExecutor
from .streams import StreamEvent, StreamScheduler
from .multigpu import MultiGPUExecutor
from .cluster import ClusterExecutor, NetworkSpec, cluster_qp3_seconds

__all__ = [
    "GPUSpec",
    "KEPLER_K40C",
    "AnchorCurve",
    "KernelModel",
    "TimeLine",
    "PhaseCounter",
    "PHASES",
    "DeviceMemory",
    "TransferModel",
    "SymArray",
    "SimulatedGPU",
    "NumpyExecutor",
    "GPUExecutor",
    "StreamEvent",
    "StreamScheduler",
    "MultiGPUExecutor",
    "ClusterExecutor",
    "NetworkSpec",
    "cluster_qp3_seconds",
    "PASCAL_P100_PROJECTION",
    "scaled_spec",
]
