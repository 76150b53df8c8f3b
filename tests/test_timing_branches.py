"""Focused tests of the timing-model branches in the multi-GPU and
cluster executors (phases charged, distribution-aware shapes, comm
events) and remaining kernel-model edges."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.gpu.cluster import ClusterExecutor, NetworkSpec
from repro.gpu.device import GPUExecutor, SymArray
from repro.gpu.kernels import KernelModel
from repro.gpu.multigpu import MultiGPUExecutor
from repro.obs.spans import SpanRecorder

M, N, K = 120_000, 2_000, 30


def _run(ex, q=1, m=M, n=N, k=K):
    cfg = SamplingConfig(rank=k, oversampling=10, power_iterations=q,
                         seed=0)
    return random_sampling(SymArray((m, n)), cfg, executor=ex)


def _charges(ex, q=1):
    """``(phase, label)`` of every accounted charge of one run, in
    order (mirror spans of symmetric work on other devices excluded)."""
    rec = SpanRecorder()
    ex.attach_recorder(rec)
    _run(ex, q=q)
    return [(s.phase, s.name) for s in rec.kernel_spans() if s.accounted]


class TestMultiGPUBranches:
    def test_local_gemm_shapes_in_labels(self):
        local = -(-M // 3)
        labels = [label for _, label in
                  _charges(MultiGPUExecutor(ng=3, seed=0))]
        assert any(f"x{local}" in lab and "local" in lab
                   for lab in labels)

    def test_b_reduce_and_qr_comms_events(self):
        comm_labels = [label for phase, label in
                       _charges(MultiGPUExecutor(ng=2, seed=0))
                       if phase == "comms"]
        assert any("reduce B" in lab for lab in comm_labels)
        assert any("h2d B" in lab for lab in comm_labels)
        assert any("cholqr" in lab for lab in comm_labels)

    def test_replicated_b_orth_on_cpu(self):
        orth_labels = [label for phase, label in
                       _charges(MultiGPUExecutor(ng=2, seed=0), q=1)
                       if phase == "orth_iter"]
        # B (width n) factored on the CPU; C (width m) via multi-GPU
        # CholQR.
        assert any("cpu-" in lab for lab in orth_labels)
        assert any("mgpu-cholqr" in lab for lab in orth_labels)

    def test_q0_has_no_iteration_phases(self):
        ex = MultiGPUExecutor(ng=2, seed=0)
        res = _run(ex, q=0)
        assert res.breakdown.get("gemm_iter", 0.0) == 0.0
        assert res.breakdown.get("orth_iter", 0.0) == 0.0

    def test_more_gpus_less_local_time(self):
        totals = {}
        for ng in (1, 2, 4):
            ex = MultiGPUExecutor(ng=ng, seed=0)
            totals[ng] = _run(ex).seconds
        assert totals[1] > totals[2] > totals[4]

    def test_block_orth_distributed_vs_replicated(self):
        # Adaptive-style block orth against distributed C charges local
        # shapes plus coefficient traffic.
        ex = MultiGPUExecutor(ng=3, seed=0)
        ex.bind(SymArray((M, N)))
        c_prev = SymArray((20, M))
        c_new = SymArray((8, M))
        ex.block_orth_rows(c_prev, c_new)
        assert ex.timeline.seconds("comms") > 0
        assert ex.timeline.seconds("orth_iter") > 0


class TestClusterBranches:
    def test_network_events_only_multinode(self):
        single = ClusterExecutor(nodes=1, gpus_per_node=3, seed=0)
        labels = [label for phase, label in _charges(single)
                  if phase == "comms"]
        assert not any("allreduce" in lab for lab in labels)

        multi = ClusterExecutor(nodes=4, gpus_per_node=3, seed=0)
        labels = [label for phase, label in _charges(multi)
                  if phase == "comms"]
        assert any("allreduce" in lab for lab in labels)

    def test_network_spec_drives_comm_time(self):
        fast = ClusterExecutor(nodes=4, gpus_per_node=1, seed=0)
        slow = ClusterExecutor(nodes=4, gpus_per_node=1, seed=0,
                               network=NetworkSpec(bandwidth_gbs=0.5,
                                                   latency_s=1e-3))
        rf = _run(fast)
        rs = _run(slow)
        assert rs.breakdown["comms"] > 3 * rf.breakdown["comms"]

    def test_gpus_per_node_tracked(self):
        ex = ClusterExecutor(nodes=2, gpus_per_node=4, seed=0)
        assert ex.ng == 8
        assert ex.local_rows(M) == -(-M // 8)


class TestKernelModelEdges:
    def test_caqp3_monotone_in_k(self):
        km = KernelModel()
        ts = [km.caqp3_seconds(50_000, 2_500, k) for k in (16, 64, 256)]
        assert ts[0] < ts[1] < ts[2]

    def test_caqp3_block_size_tradeoff(self):
        km = KernelModel()
        # Tiny panels multiply the per-panel latency.
        t_small = km.caqp3_seconds(50_000, 2_500, 256, block_size=4)
        t_big = km.caqp3_seconds(50_000, 2_500, 256, block_size=64)
        assert t_small != t_big

    def test_gemm_efficiency_capped_at_peak(self):
        km = KernelModel()
        t = km.gemm_seconds(512, 2_500, 50_000, efficiency=100.0)
        rate = 2.0 * 512 * 2_500 * 50_000 / (t * 1e9)
        assert rate <= km.spec.dgemm_peak_gflops * 1.001

    def test_potrf_latency_floor(self):
        km = KernelModel()
        assert km.potrf_seconds(2) > 0
        assert km.potrf_seconds(256) > km.potrf_seconds(16)

    def test_axpy_positive(self):
        assert KernelModel().axpy_seconds(10_000) > 0

    def test_trmm_equals_trsm_model(self):
        km = KernelModel()
        assert km.trmm_seconds(64, 500) == km.trsm_seconds(64, 500)


class TestHarnessVariants:
    def test_fig12_vs_fig13_consistency(self):
        """The (m=50k, n=2.5k, l=64) point appears in both sweeps and
        must agree."""
        from repro.bench.figures import fig12_time_vs_cols, \
            fig13_time_vs_rank
        p12 = [p for p in fig12_time_vs_cols(ns=(2_500,))][0]
        p13 = [p for p in fig13_time_vs_rank(ls=(64,))][0]
        assert p12["total"] == pytest.approx(p13["total"], rel=1e-9)
        assert p12["qp3"] == pytest.approx(p13["qp3"], rel=1e-9)

    def test_fig11_matches_fig14_q_slice(self):
        from repro.bench.figures import (fig11_time_vs_rows,
                                         fig14_time_vs_iterations)
        p11 = fig11_time_vs_rows(ms=(50_000,), q=2)[0]
        d14 = fig14_time_vs_iterations(ms=(50_000,), qs=(2,))
        assert p11["total"] == pytest.approx(d14["q2"][0], rel=1e-9)
