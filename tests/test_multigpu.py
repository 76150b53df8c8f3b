"""Tests for the multi-GPU runtime (repro.gpu.multigpu)."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.errors import ConfigurationError
from repro.gpu.device import GPUExecutor, NumpyExecutor, SymArray
from repro.gpu.multigpu import CPUSpec, MultiGPUExecutor


class TestConstruction:
    def test_ng_validation(self):
        with pytest.raises(ConfigurationError):
            MultiGPUExecutor(ng=0)

    def test_devices_created(self):
        ex = MultiGPUExecutor(ng=3)
        assert len(ex.devices) == 3
        assert [d.device_id for d in ex.devices] == [0, 1, 2]

    def test_local_rows_ceiling(self):
        ex = MultiGPUExecutor(ng=3)
        assert ex.local_rows(150_000) == 50_000
        assert ex.local_rows(100) == 34


class TestMathIdentical:
    """The distributed executor must compute the same numbers as the
    single-device and pure-NumPy paths (only the clock differs)."""

    def test_fixed_rank_factors_match_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 15)) @ rng.standard_normal((15, 60))
        cfg = SamplingConfig(rank=15, oversampling=5, power_iterations=1,
                             seed=9)
        ref = random_sampling(a, cfg, executor=NumpyExecutor(seed=9))
        out = random_sampling(a, cfg, executor=MultiGPUExecutor(ng=3,
                                                                seed=9))
        np.testing.assert_allclose(np.asarray(out.q), np.asarray(ref.q),
                                   atol=1e-9)
        np.testing.assert_allclose(np.asarray(out.r), np.asarray(ref.r),
                                   atol=1e-9)
        np.testing.assert_array_equal(out.perm, ref.perm)

    def test_residual_small_on_lowrank(self, lowrank_matrix):
        cfg = SamplingConfig(rank=12, oversampling=6, seed=2)
        out = random_sampling(lowrank_matrix, cfg,
                              executor=MultiGPUExecutor(ng=2, seed=2))
        assert out.residual(lowrank_matrix) < 1e-9

    @pytest.mark.parametrize("depths", [(1, 1), (32, 8)],
                             ids=["1x1", "32x8"])
    def test_schedule_depths_change_only_the_clock(self, depths):
        """``pipeline_chunks``/``cholqr_buffers`` reshape the event DAG
        only: the factors stay bit for bit and every phase sum stays."""
        a = np.random.default_rng(7).standard_normal((400, 120))
        cfg = SamplingConfig(rank=20, power_iterations=1, seed=1)

        def run(chunks, buffers):
            ex = MultiGPUExecutor(ng=3, seed=1)
            ex.pipeline_chunks, ex.cholqr_buffers = chunks, buffers
            return random_sampling(a, cfg, executor=ex)

        ref, out = run(4, 2), run(*depths)
        for name in ("q", "r", "perm"):
            np.testing.assert_array_equal(np.asarray(getattr(out, name)),
                                          np.asarray(getattr(ref, name)))
        assert out.breakdown == pytest.approx(ref.breakdown, rel=1e-12)


class TestTimingModel:
    def _run(self, ng: int, m: int = 150_000, q: int = 1):
        ex = MultiGPUExecutor(ng=ng, seed=0)
        cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=q,
                             seed=0)
        res = random_sampling(SymArray((m, 2_500)), cfg, executor=ex)
        return res

    def test_comms_charged_for_multi(self):
        res = self._run(3)
        assert res.breakdown["comms"] > 0

    def test_strong_scaling_speedup(self):
        """Figure 15: overall speedups of ~2.4x (2 GPUs) and ~3.8x
        (3 GPUs); superlinear via the GEMM aspect-ratio effect.  Allow
        a generous band around the paper's values."""
        t1 = self._run(1).seconds
        t2 = self._run(2).seconds
        t3 = self._run(3).seconds
        assert 2.0 < t1 / t2 < 3.2
        assert 3.2 < t1 / t3 < 4.8

    def test_comm_fraction_small_and_growing(self):
        """Figure 15: comms are 1.6 % of time on 2 GPUs, 4.3 % on 3."""
        r2 = self._run(2)
        r3 = self._run(3)
        f2 = r2.breakdown["comms"] / r2.seconds
        f3 = r3.breakdown["comms"] / r3.seconds
        assert 0.005 < f2 < 0.04
        assert 0.015 < f3 < 0.08
        assert f3 > f2

    def test_memory_accounted_per_device(self):
        ex = MultiGPUExecutor(ng=3, seed=0)
        ex.bind(SymArray((150_000, 2_500)))
        expect = 8 * 50_000 * 2_500
        assert all(d.memory.used == expect for d in ex.devices)

    def test_memory_ragged_last_device(self):
        """The last device of a ragged split owns the remainder block
        and must account only its true (smaller) size."""
        ex = MultiGPUExecutor(ng=3, seed=0)
        ex.bind(SymArray((100, 40)))
        # ceil(100/3) = 34 rows on devices 0-1, 100 - 2*34 = 32 on 2.
        assert [d.memory.used for d in ex.devices] == [
            8 * 34 * 40, 8 * 34 * 40, 8 * 32 * 40]
        assert ex.local_rows_of(2, 100) == 32

    def test_faster_than_single_gpu_executor(self):
        """At the Figure 15 shape, 3 simulated GPUs must beat the
        single-GPU executor end to end."""
        cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                             seed=0)
        single = random_sampling(SymArray((150_000, 2_500)), cfg,
                                 executor=GPUExecutor(seed=0)).seconds
        multi = self._run(3).seconds
        assert multi < single


class TestReducedBlocksComeHome:
    """Each CPU reduction of the row-partitioned ``B`` (Step 1's
    ``B = Omega A`` and every power iteration's ``B = C A``) hands the
    host-resident sum back through ``to_host``, which records one d2h
    transfer of the ``l x n`` block in ``BackendStats``.  Factors and
    modeled seconds do not move when a download is skipped, so these
    counters are where it shows."""

    @pytest.mark.parametrize("ng", [1, 2, 3])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_each_reduction_downloads_b_once(self, ng, q):
        a = np.random.default_rng(4).standard_normal((1200, 200))
        cfg = SamplingConfig(rank=20, power_iterations=q, seed=3)
        ex = MultiGPUExecutor(ng=ng, seed=3)
        stats = ex.backend.stats
        calls, nbytes = stats.d2h_calls, stats.d2h_bytes
        random_sampling(a, cfg, executor=ex)
        assert stats.d2h_calls - calls == 1 + q
        assert stats.d2h_bytes - nbytes == (1 + q) * 8 * cfg.sample_size * 200

    def test_symbolic_run_downloads_nothing(self):
        cfg = SamplingConfig(rank=20, power_iterations=2, seed=3)
        ex = MultiGPUExecutor(ng=2, seed=3)
        stats = ex.backend.stats
        calls, nbytes = stats.d2h_calls, stats.d2h_bytes
        random_sampling(SymArray((1200, 200)), cfg, executor=ex)
        assert (stats.d2h_calls, stats.d2h_bytes) == (calls, nbytes)


class TestCPUSpec:
    def test_seconds_positive(self):
        cpu = CPUSpec()
        assert cpu.gemm_seconds(1e9) > 0
        assert cpu.panel_seconds(1e6) > 0
        assert cpu.potrf_seconds(64) > 0

    def test_custom_rates(self):
        cpu = CPUSpec(gemm_gflops=100.0)
        assert cpu.gemm_seconds(1e11) == pytest.approx(1.0)
