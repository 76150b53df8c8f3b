"""Multi-GPU runtime: 1D block-row distribution (Section 4, Figure 4).

The matrix ``A`` is split in block rows across ``ng`` devices (each
owns ``c ~ m / ng`` rows); ``Omega`` and ``C`` are split in the same 1D
block-*column* format as ``A^T``.  The dataflow follows the paper:

- ``B = Omega A`` / ``B = C A``: every GPU multiplies its local blocks,
  the CPU accumulates the ``ng`` partial ``l x n`` results.
- QR of the small ``B`` runs on the **CPU** and the orthogonal factor
  is broadcast to every GPU.
- ``C = B A^T``: local GEMMs; ``C`` stays distributed.
- CholQR of the distributed ``C``: local Gram products ``G_i = C_i
  C_i^T``, CPU reduction ``G = sum G_i``, CPU Cholesky, broadcast of
  ``R_bar``, local triangular solves (Figure 4).
- Steps 2 and 3 (QP3 of ``B``; the tall-skinny QR of ``A P_{1:k}``)
  run on device 0 / via multi-GPU CholQR respectively.

Math is executed once on the host arrays (results are identical to the
single-device path by construction); the *timing* runs through the
:class:`repro.gpu.streams.StreamScheduler`: every operation is placed
on per-device streams (``compute``, ``d2h``/``h2d`` sharing the host's
``pcie`` lane, CPU work on the host ``cpu`` stream) and the modeled
run time is the critical path through that DAG.  With ``overlap=True``
(the default, matching the paper's pipelined runtime) the partial-sum
reduction of ``B`` is chunked and each chunk's gather overlaps the
next chunk's local GEMM, and the tall-skinny CholQR double-buffers its
Gram transfers behind the second SYRK buffer; ``overlap=False``
serializes every submission, restoring the plain serial-sum model.
Phase *sums* are identical either way — only the elapsed critical path
differs — reproducing the 1.6 % / 4.3 % communication fractions and
the superlinear GEMM scaling of Figure 15 (the local panels get
shorter, so the per-device GEMM rate rises).

All charging goes through the stream API; ``device.charge`` must not
be called directly here (analyzer rule RS108), and every submission
declares the logical buffers it touches via ``reads=``/``writes=``
(analyzer rule RS111) so the happens-before race sanitizer
(:mod:`repro.analysis.races`) can verify the event DAG orders every
conflicting access.  Setting ``REPRO_RACE_CHECK=1`` attaches the
sanitizer in raising mode; it is observation-only, so modeled totals
are identical with it on or off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .device import (ArrayLike, GPUExecutor, SimulatedGPU, SymArray,
                     _words_bytes, shape_of)
from .kernels import gemm_flops, qp3_flops, qr_flops
from .specs import GPUSpec, KEPLER_K40C
from .streams import HOST, StreamEvent, StreamScheduler

__all__ = ["CPUSpec", "MultiGPUExecutor"]


@dataclass(frozen=True)
class CPUSpec:
    """Host model: the paper's two 8-core SandyBridge Xeons with MKL."""

    gemm_gflops: float = 200.0
    small_panel_gflops: float = 25.0
    potrf_gflops: float = 15.0

    def gemm_seconds(self, flops: float) -> float:
        return flops / (self.gemm_gflops * 1e9)

    def panel_seconds(self, flops: float) -> float:
        return flops / (self.small_panel_gflops * 1e9)

    def potrf_seconds(self, n: int) -> float:
        return (n ** 3 / 3.0) / (self.potrf_gflops * 1e9)


class MultiGPUExecutor(GPUExecutor):
    """Executor modeling ``ng`` simulated GPUs on one node.

    Per-parallel-operation time is charged once with the *local* block
    shapes (the devices are symmetric, so the max over devices equals
    the device-0 time); communication goes to the ``comms`` phase.
    ``overlap`` selects the pipelined stream schedule (on, the paper's
    runtime) or the serial sum (off, the ablation baseline).  The two
    schedule depths below move work between streams but never change
    phase sums or the host math; ``docs/performance.md`` ("Schedule
    depths") records why they stay constants.
    """

    #: Gather pipeline depth: chunks per pipelined local GEMM.
    pipeline_chunks = 4
    #: SYRK buffers per distributed CholQR pass (the paper's double
    #: buffering).
    cholqr_buffers = 2

    def __init__(self, ng: int, spec: GPUSpec = KEPLER_K40C,
                 cpu: CPUSpec = CPUSpec(),
                 seed: Optional[int] = None,
                 overlap: bool = True,
                 backend=None):
        if ng < 1:
            raise ConfigurationError(f"ng must be >= 1, got {ng}")
        super().__init__(spec=spec, seed=seed, backend=backend)
        self.ng = ng
        self.cpu = cpu
        self.overlap = bool(overlap)
        self.devices: List[SimulatedGPU] = [
            SimulatedGPU(spec, device_id=i) for i in range(ng)]
        # Device 0 doubles as the master clock target via `self.device`.
        self.device = self.devices[0]
        self.kernels = self.device.kernels
        # All charges go through the scheduler onto device 0's master
        # timeline; `seconds` reads the scheduler's critical path.
        self.streams = StreamScheduler(ng=ng, overlap=self.overlap,
                                       timeline=self.device.timeline)
        self.streams.memory_probe = self._memory_high_water
        if os.environ.get("REPRO_RACE_CHECK", "") not in ("", "0", "false"):
            from ..analysis.races import RaceChecker
            self.streams.attach_race_checker(RaceChecker(raise_on_race=True))
        self._dist_cols: Optional[int] = None  # = m once bound
        #: Per-chunk completion events of the last pipelined local GEMM
        #: (consumed by `_reduce_b` to overlap the gather).
        self._chunk_events: Optional[List[StreamEvent]] = None

    def _memory_high_water(self, device_id: int) -> int:
        return self.devices[device_id].memory.high_water

    # ------------------------------------------------------------------
    # distribution helpers
    # ------------------------------------------------------------------
    def bind(self, a: ArrayLike) -> None:
        """Register the input matrix: establishes the distributed
        dimension (its row count ``m``) and accounts device memory."""
        m, n = shape_of(a)
        self._dist_cols = m
        for d, dev in enumerate(self.devices):
            dev.memory.reset()
            dev.memory.allocate(8 * self.local_rows_of(d, m) * n)

    def attach_recorder(self, recorder) -> None:
        """Attach one span recorder across every simulated device (the
        kernel spans carry each device's id and stream)."""
        for dev in self.devices:
            dev.attach_recorder(recorder)
        self.streams.attach_recorder(recorder)

    def reset_clock(self) -> None:
        for dev in self.devices:
            dev.reset()
        self.streams.reset(timeline=self.device.timeline)

    def local_rows(self, m: int) -> int:
        """Rows of the largest local block ``A_(i)``."""
        return -(-m // self.ng)  # ceil division

    def local_rows_of(self, device_id: int, m: int) -> int:
        """Rows actually owned by ``device_id``: the last device of a
        ragged split gets the (smaller) remainder block."""
        c = self.local_rows(m)
        return min(c, max(0, m - device_id * c))

    def _is_distributed_width(self, cols: int) -> bool:
        """True when a short-wide block's width is the distributed
        dimension ``m`` (i.e. the block is ``C``, stored block-column
        across devices), as opposed to the replicated ``B`` (width n)."""
        return self._dist_cols is not None and cols == self._dist_cols

    # ------------------------------------------------------------------
    # stream-API charging helpers (RS108: no direct device.charge here)
    # ------------------------------------------------------------------
    def _all_compute(self) -> List[Tuple[int, str]]:
        return [(d, "compute") for d in range(self.ng)]

    def _charge_all(self, phase: str, seconds: float, label: str,
                    flops: float = 0.0, bytes_moved: float = 0.0,
                    reads: Sequence[str] = (),
                    writes: Sequence[str] = ()) -> None:
        """Charge symmetric parallel work (counted once: max = local),
        joined after everything in flight."""
        self.streams.submit_group(phase, seconds,
                                  placements=self._all_compute(),
                                  after_all=True, label=label,
                                  flops=flops, bytes_moved=bytes_moved,
                                  reads=reads, writes=writes)

    def _charge_comm(self, seconds: float, label: str,
                     bytes_moved: float = 0.0,
                     reads: Sequence[str] = (),
                     writes: Sequence[str] = ()) -> None:
        """One serialized transfer through the shared PCIe lane."""
        self.streams.submit("comms", seconds, device=0, stream="d2h",
                            resources=[(HOST, "pcie")], after_all=True,
                            label=label, bytes_moved=bytes_moved,
                            reads=reads, writes=writes)

    def _chunks(self) -> int:
        return self.pipeline_chunks if self.overlap else 1

    def _local_gemm(self, phase: str, seconds: float, label: str,
                    flops: float, bytes_moved: float,
                    reads: Sequence[str] = ()) -> None:
        """Pipelined symmetric local GEMM: split into chunks so the
        per-chunk gather of a following reduction can overlap the next
        chunk's compute.  Chunk completion events are parked in
        ``_chunk_events`` for :meth:`_reduce_b`; chunk ``j`` writes the
        logical buffer ``B_chunk[j]`` that the matching gather leg
        reads, which is exactly the edge the race sanitizer verifies.
        """
        chunks = self._chunks()
        self._chunk_events = []
        for j in range(chunks):
            ev = self.streams.submit_group(
                phase, seconds / chunks,
                placements=self._all_compute(),
                after_all=(j == 0),
                label=(label if chunks == 1
                       else f"{label} c{j + 1}/{chunks}"),
                flops=flops / chunks, bytes_moved=bytes_moved / chunks,
                reads=reads, writes=[f"B_chunk[{j}]"])
            self._chunk_events.append(ev)

    # ------------------------------------------------------------------
    # overridden operations (timing only; math identical to base class)
    # ------------------------------------------------------------------
    def prng_gaussian(self, rows: int, cols: int,
                      symbolic: bool = False) -> ArrayLike:
        # Omega is generated distributed (rows x c per device).
        c = self.local_rows(cols) if self._dist_cols == cols else cols
        self._charge_all("prng", self.kernels.curand_seconds(rows * c),
                         label=f"curand {rows}x{c} (local)",
                         flops=float(rows * c), bytes_moved=8.0 * rows * c,
                         writes=["Omega"])
        if symbolic:
            return SymArray((rows, cols))
        return self.backend.standard_normal(self.rng, (rows, cols))

    def sample_gemm(self, omega: ArrayLike, a: ArrayLike) -> ArrayLike:
        """``B_(i) = Omega_(i) A_(i)`` locally, then CPU accumulation;
        the chunked gather overlaps the next chunk's GEMM.

        The accumulated ``B`` is host-resident (the reduction in
        :meth:`_reduce_b` lands on the CPU), so the product is
        downloaded through
        :meth:`~repro.gpu.device.NumpyExecutor.to_host`, which records
        the d2h transfer in ``BackendStats``.
        """
        b = self._gemm(omega, a, "sampling", split="inner",
                       reads=["Omega", "A"])
        self._reduce_b(*shape_of(b))
        return self.to_host(b)

    def _reduce_b(self, l: int, n: int) -> None:
        """Gather ng partial l x n blocks to the CPU and sum them.

        Each device's gather of chunk ``j`` depends only on its chunk-
        ``j`` GEMM (the events parked by :meth:`_local_gemm`), so with
        ``overlap=on`` the transfers drain behind the remaining compute;
        the shared ``pcie`` resource serializes concurrent devices,
        keeping the total transfer time equal to
        :meth:`repro.gpu.memory.TransferModel.reduce_seconds`.
        """
        chunk_events = self._chunk_events or [self.streams.barrier()]
        self._chunk_events = None
        chunks = len(chunk_events)
        total = self.device.transfers.reduce_seconds(8 * l * n, self.ng)
        per_leg = total / (self.ng * chunks)
        for j, ev in enumerate(chunk_events):
            for d in range(self.ng):
                self.streams.submit(
                    "comms", per_leg, device=d, stream="d2h",
                    resources=[(HOST, "pcie")], deps=[ev],
                    label=f"reduce B {l}x{n} x{self.ng}",
                    bytes_moved=8.0 * l * n / chunks,
                    reads=[f"B_chunk[{j}]"],
                    writes=[f"B_host[{j},g{d}]"])
        # CPU accumulation: (ng - 1) adds of l*n.
        if self.ng > 1:
            self.streams.submit(
                "comms", self.cpu.gemm_seconds((self.ng - 1) * l * n),
                device=HOST, stream="cpu", after_all=True,
                label="cpu accumulate",
                flops=float((self.ng - 1) * l * n),
                reads=[f"B_host[{j},g{d}]"
                       for j in range(chunks) for d in range(self.ng)],
                writes=["B"])

    def _broadcast(self, l: int, n: int, label: str,
                   src: str = "B") -> None:
        """Host-to-every-device broadcast of the replicated ``src``
        buffer; each leg writes the device-local replica ``src@g{d}``."""
        total = self.device.transfers.broadcast_seconds(8 * l * n, self.ng)
        for d in range(self.ng):
            self.streams.submit("comms", total / self.ng, device=d,
                                stream="h2d", resources=[(HOST, "pcie")],
                                after_all=(d == 0), label=label,
                                bytes_moved=8.0 * l * n,
                                reads=[src], writes=[f"{src}@g{d}"])

    def iter_gemm_at(self, b: ArrayLike, a: ArrayLike) -> ArrayLike:
        """``C_(i) = B A_(i)^T`` locally; C stays distributed."""
        return self._gemm(b, a.T, "gemm_iter", split="cols",
                          reads=[f"B@g{d}" for d in range(self.ng)] + ["A"])

    def iter_gemm_a(self, c_mat: ArrayLike, a: ArrayLike) -> ArrayLike:
        """``B_(i) = C_(i) A_(i)`` locally, then CPU accumulation.

        Like :meth:`sample_gemm`, the reduced ``B`` is host-resident
        and comes back through ``to_host``.
        """
        b = self._gemm(c_mat, a, "gemm_iter", split="inner",
                       reads=["C", "A"])
        self._reduce_b(*shape_of(b))
        return self.to_host(b)

    def _t_gemm(self, m: int, n: int, k: int, phase: str,
                split: Optional[str] = None,
                reads: Sequence[str] = ()) -> None:
        """GEMM charge step, placed by ``split``.

        ``"inner"``: every device multiplies its ``c = local_rows(k)``
        slice of the contraction in pipelined chunks, whose partial sums
        :meth:`_reduce_b` then gathers.  ``"cols"``: every device
        computes ``c = local_rows(n)`` columns of the result, which
        stays distributed as ``C``.  No split: the product has no
        distributed decomposition and runs on device 0 (:meth:`_charge`).
        """
        eff = self._gemm_efficiency(phase)
        if split == "inner":
            c = self.local_rows(k)
            flops = gemm_flops(m, n, c)
            self._local_gemm(phase,
                             self.kernels.gemm_seconds(m, n, c,
                                                       efficiency=eff),
                             label=f"gemm {m}x{n}x{c} (local)", flops=flops,
                             bytes_moved=_words_bytes(flops, m * c, c * n,
                                                      m * n),
                             reads=reads)
        elif split == "cols":
            c = self.local_rows(n)
            flops = gemm_flops(m, c, k)
            self._charge_all(phase,
                             self.kernels.gemm_seconds(m, c, k,
                                                       efficiency=eff),
                             label=f"gemm {m}x{c}x{k} (local)", flops=flops,
                             bytes_moved=_words_bytes(flops, m * k, c * k,
                                                      m * c),
                             reads=reads, writes=["C"])
        else:
            super()._t_gemm(m, n, k, phase)

    def _t_orth(self, rows: int, cols: int, scheme: str, reorth: bool,
                phase: str) -> None:
        """Orthogonalization timing: CPU for the replicated ``B``,
        multi-GPU CholQR (Figure 4) for the distributed ``C`` and for
        the tall-skinny Step-3 QR (double-buffered: the first SYRK
        buffer's partial Gram ships while the second buffer computes)."""
        passes = 2 if reorth else 1
        if self._is_distributed_width(max(rows, cols)) or phase == "qr":
            self._distributed_cholqr(rows, cols, passes, phase)
            return
        # Replicated short-wide B: factor on the CPU, broadcast Q.
        small = min(rows, cols)
        long = max(rows, cols)
        flops = 2.0 * long * small * small * passes * 2
        self.streams.submit(phase, self.cpu.panel_seconds(flops),
                            device=HOST, stream="cpu", after_all=True,
                            label=f"cpu-{scheme} {rows}x{cols}",
                            flops=flops,
                            bytes_moved=8.0 * rows * cols * passes,
                            reads=["B"], writes=["B"])
        self._broadcast(rows, cols, "broadcast Q_B", src="B")

    def _distributed_cholqr(self, rows: int, cols: int, passes: int,
                            phase: str) -> None:
        """Distributed CholQR: local SYRK over c columns/rows, reduce
        the small Gram, CPU Cholesky, broadcast R_bar, local TRSM.

        The SYRK runs in ``cholqr_buffers`` buffers per pass (2, the
        paper's double-buffering); each buffer's partial Gram
        goes down the ``d2h`` stream as soon as it finishes, so all but
        the last transfer hide behind later buffers' compute.  The
        buffer count reshapes the schedule only — per-phase totals are
        independent of it.
        """
        nb = self.cholqr_buffers
        small = min(rows, cols)
        long_local = self.local_rows(max(rows, cols))
        syrk = self.kernels.syrk_seconds(small, long_local)
        trsm = self.kernels.trsm_seconds(small, long_local)
        cpu = self.cpu.potrf_seconds(small)
        reduce_t = self.device.transfers.reduce_seconds(
            8 * small * small, self.ng)
        bcast_t = self.device.transfers.broadcast_seconds(
            8 * small * small, self.ng)
        flops = passes * qr_flops(long_local, small)
        bytes_moved = _words_bytes(flops, passes * long_local * small)
        # Per accounted compute submission (nb SYRK buffers + 1 TRSM
        # per pass): the totals are preserved exactly.
        flops_each = flops / (passes * (nb + 1))
        bytes_each = bytes_moved / (passes * (nb + 1))
        label = f"mgpu-cholqr {rows}x{cols}"
        # Logical buffer names for the sanitizer: the factored panel
        # ("C" in the iteration, "Q_panel" in Step 3's tall-skinny QR),
        # the partial-Gram SYRK buffers, the host-side Gram legs,
        # and the replicated Cholesky factor R_bar.
        panel = "Q_panel" if phase == "qr" else "C"
        for _ in range(passes):
            buffers = []
            for b in range(nb):
                buffers.append(self.streams.submit_group(
                    phase, syrk / nb, placements=self._all_compute(),
                    after_all=(b == 0),
                    label=f"{label} syrk b{b + 1}/{nb}",
                    flops=flops_each, bytes_moved=bytes_each,
                    reads=[panel], writes=[f"G_part[{b}]"]))
            for b, ev in enumerate(buffers):
                for d in range(self.ng):
                    self.streams.submit(
                        "comms", reduce_t / (nb * self.ng), device=d,
                        stream="d2h", resources=[(HOST, "pcie")],
                        deps=[ev], label="cholqr gram/factor",
                        bytes_moved=8.0 * small * small,
                        reads=[f"G_part[{b}]"],
                        writes=[f"G[{b},g{d}]"])
            potrf = self.streams.submit(
                phase, cpu, device=HOST, stream="cpu", after_all=True,
                label=f"cpu-potrf {small}",
                reads=[f"G[{b},g{d}]" for b in range(nb)
                       for d in range(self.ng)],
                writes=["R_bar"])
            for d in range(self.ng):
                self.streams.submit(
                    "comms", bcast_t / self.ng, device=d, stream="h2d",
                    resources=[(HOST, "pcie")], deps=[potrf],
                    label="cholqr gram/factor",
                    bytes_moved=8.0 * small * small,
                    reads=["R_bar"], writes=[f"R_bar@g{d}"])
            self.streams.submit_group(
                phase, trsm, placements=self._all_compute(),
                after_all=True, label=f"{label} trsm",
                flops=flops_each, bytes_moved=bytes_each,
                reads=[panel] + [f"R_bar@g{d}" for d in range(self.ng)],
                writes=[panel])

    def _t_qrcp(self, m: int, n: int, k: int) -> None:
        # Truncated QP3 of the small sampled matrix on device 0; B must
        # first be sent down to the device.
        h2d = self.streams.submit(
            "comms", self.device.transfers.seconds(8 * m * n),
            device=0, stream="h2d", resources=[(HOST, "pcie")],
            after_all=True, label="h2d B for QP3",
            bytes_moved=8.0 * m * n,
            reads=["B"], writes=["B@g0"])
        flops = qp3_flops(m, n, k)
        self.streams.submit("qrcp", self.kernels.qp3_seconds(m, n, k),
                            device=0, stream="compute", deps=[h2d],
                            label=f"qp3 {m}x{n} k={k}", flops=flops,
                            bytes_moved=8.0 * (flops / 2.0 + m * n),
                            reads=["B@g0"], writes=["B_qrcp"])

    def _t_copy(self, nbytes: int, phase: str) -> None:
        # Column gather happens locally on each device (rows split).
        local = nbytes // self.ng
        secs = (2 * local / (self.device.spec.mem_bw_gbs * 1e9)
                + self.device.spec.kernel_launch_s)
        self._charge_all(phase, secs, label=f"copy {local}B (local)",
                         bytes_moved=2.0 * local,
                         reads=["A"], writes=["Q_panel"])

    def _t_block_orth(self, prev: int, new: int, length: int,
                      reorth: bool, phase: str) -> None:
        if self._is_distributed_width(length):
            c = self.local_rows(length)
            secs = self.kernels.block_orth_seconds(prev, new, c, reorth)
            flops = 4.0 * prev * new * c * (2 if reorth else 1)
            ev = self.streams.submit_group(
                phase, secs, placements=self._all_compute(),
                after_all=True, label=f"borth {prev}+{new} (local)",
                flops=flops,
                bytes_moved=_words_bytes(flops, (prev + new) * c),
                reads=["Q_panel"], writes=["Q_panel"])
            # The small coefficient blocks travel through the host.
            comm = self.device.transfers.reduce_seconds(
                8 * prev * new, self.ng) * (2 if reorth else 1)
            for d in range(self.ng):
                self.streams.submit(
                    "comms", comm / self.ng, device=d, stream="d2h",
                    resources=[(HOST, "pcie")], deps=[ev],
                    label="borth coeffs",
                    bytes_moved=8.0 * prev * new * (2 if reorth else 1),
                    reads=["Q_panel"], writes=[f"borth_coeffs@g{d}"])
        else:
            # Replicated B: block-orth on the CPU alongside its QR.
            flops = 4.0 * prev * new * length * (2 if reorth else 1)
            self.streams.submit(phase, self.cpu.gemm_seconds(flops),
                                device=HOST, stream="cpu", after_all=True,
                                label=f"cpu-borth {prev}+{new}x{length}",
                                flops=flops,
                                bytes_moved=8.0 * (prev + new) * length,
                                reads=["B"], writes=["B"])

    def _charge(self, phase: str, seconds: float, label: str,
                flops: float = 0.0, bytes_moved: float = 0.0) -> None:
        """The single-device hooks this executor inherits (ops with no
        distributed decomposition) run on device 0 after a global join,
        so the critical path still covers them; their shared
        ``dev0_panel`` buffer is ordered by the joins."""
        self.streams.submit(phase, seconds, device=0, stream="compute",
                            after_all=True, label=label, flops=flops,
                            bytes_moved=bytes_moved,
                            reads=["dev0_panel"], writes=["dev0_panel"])

    @property
    def seconds(self) -> float:
        """Modeled elapsed seconds: the critical path through the
        stream DAG (equals the serial phase sum when ``overlap=off``)."""
        return self.streams.elapsed
