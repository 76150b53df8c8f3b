"""Tests for the fixed-rank algorithm (repro.core.random_sampling)."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.lowrank import best_rank_k_error
from repro.core.random_sampling import random_sampling
from repro.backends.hostmath import LinAlgError
from repro.errors import (ConfigurationError, RankDeficientError,
                          ReproError, ShapeError, SymbolicExecutionError)
from repro.gpu.device import GPUExecutor, NumpyExecutor, SymArray
from repro.matrices.synthetic import exponent_matrix, power_matrix
from repro.qr.qrcp import qp3_blocked

from tests.helpers import (assert_orthonormal_columns,
                           assert_valid_permutation)


class TestExactRecovery:
    def test_rank_k_matrix_recovered(self, lowrank_matrix):
        cfg = SamplingConfig(rank=12, oversampling=6, seed=0)
        f = random_sampling(lowrank_matrix, cfg)
        assert f.residual(lowrank_matrix) < 1e-10

    def test_rank_larger_than_true_rank(self, lowrank_matrix):
        cfg = SamplingConfig(rank=20, oversampling=5, seed=0)
        f = random_sampling(lowrank_matrix, cfg)
        assert f.residual(lowrank_matrix) < 1e-9

    def test_factor_contracts(self, decaying_matrix):
        cfg = SamplingConfig(rank=30, oversampling=10, seed=1)
        f = random_sampling(decaying_matrix, cfg)
        assert f.q.shape == (400, 30)
        assert f.r.shape == (30, 120)
        assert_orthonormal_columns(np.asarray(f.q))
        assert_valid_permutation(f.perm, 120)
        assert f.k == 30
        assert f.sample_size == 40

    def test_r_leading_block_triangular(self, decaying_matrix):
        f = random_sampling(decaying_matrix,
                            SamplingConfig(rank=20, seed=2))
        r = np.asarray(f.r)
        np.testing.assert_allclose(r[:, :20], np.triu(r[:, :20]))


class TestAccuracyVsOptimum:
    @pytest.mark.parametrize("q,factor", [(0, 30.0), (1, 6.0), (2, 4.0)])
    def test_error_within_factor_of_sigma_k1(self, decaying_matrix, q,
                                             factor):
        cfg = SamplingConfig(rank=30, oversampling=10, power_iterations=q,
                             seed=3)
        f = random_sampling(decaying_matrix, cfg)
        opt = best_rank_k_error(decaying_matrix, 30)
        assert f.residual(decaying_matrix) < factor * opt

    def test_power_iterations_never_hurt_much(self, decaying_matrix):
        errs = []
        for q in (0, 1, 2):
            cfg = SamplingConfig(rank=25, oversampling=10,
                                 power_iterations=q, seed=4)
            errs.append(random_sampling(decaying_matrix,
                                        cfg).residual(decaying_matrix))
        assert errs[1] <= errs[0] * 1.1
        assert errs[2] <= errs[1] * 1.1

    def test_figure6_parity_with_qp3(self):
        """Figure 6's core claim: q = 0 matches QP3's error to within
        one order of magnitude, q >= 1 matches it outright."""
        a = exponent_matrix(2_000, 300, seed=5)
        qp3_err = qp3_blocked(a, k=50).residual(a)
        e0 = random_sampling(a, SamplingConfig(rank=50, seed=6)).residual(a)
        e1 = random_sampling(a, SamplingConfig(rank=50, power_iterations=1,
                                               seed=6)).residual(a)
        assert e0 < 10 * qp3_err
        assert e1 < 2.0 * qp3_err

    def test_oversampling_improves_error(self):
        """Section 7: without oversampling (p = 0) the error norm is
        about an order of magnitude greater."""
        a = power_matrix(2_000, 300, seed=7)
        e_p0 = random_sampling(a, SamplingConfig(rank=50, oversampling=0,
                                                 seed=8)).residual(a)
        e_p10 = random_sampling(a, SamplingConfig(rank=50, oversampling=10,
                                                  seed=8)).residual(a)
        assert e_p10 < e_p0

    def test_fft_sampler_same_error_order(self):
        """Section 7: FFT sampling gives errors of the same order as
        Gaussian sampling."""
        a = exponent_matrix(1_024, 200, seed=9)
        eg = random_sampling(a, SamplingConfig(rank=40, seed=10)).residual(a)
        ef = random_sampling(a, SamplingConfig(rank=40, sampler="fft",
                                               seed=10)).residual(a)
        assert ef < 10 * eg
        assert eg < 10 * ef


class TestDeterminism:
    def test_same_seed_same_factors(self, decaying_matrix):
        cfg = SamplingConfig(rank=20, seed=11)
        f1 = random_sampling(decaying_matrix, cfg)
        f2 = random_sampling(decaying_matrix, cfg)
        np.testing.assert_array_equal(np.asarray(f1.q), np.asarray(f2.q))
        np.testing.assert_array_equal(f1.perm, f2.perm)

    def test_different_seed_different_sample(self, decaying_matrix):
        f1 = random_sampling(decaying_matrix, SamplingConfig(rank=20,
                                                             seed=1))
        f2 = random_sampling(decaying_matrix, SamplingConfig(rank=20,
                                                             seed=2))
        assert not np.allclose(np.asarray(f1.q), np.asarray(f2.q))


class TestValidation:
    def test_rank_exceeds_dims(self, rng):
        a = rng.standard_normal((30, 20))
        with pytest.raises(ConfigurationError):
            random_sampling(a, SamplingConfig(rank=25))

    def test_sample_size_exceeds_m(self, rng):
        a = rng.standard_normal((30, 40))
        with pytest.raises(ConfigurationError):
            random_sampling(a, SamplingConfig(rank=25, oversampling=10))

    def test_sample_size_exceeds_n_with_power_iterations(self):
        # q >= 1 orthonormalizes the l x n sample's rows, so l = 130
        # cannot exceed n = 120; the check runs before any charge.
        a = np.random.default_rng(1).standard_normal((600, 120))
        cfg = SamplingConfig(rank=120, oversampling=10, power_iterations=1,
                             seed=1)
        ex = GPUExecutor(seed=1)
        with pytest.raises(ConfigurationError,
                           match="l = 130 exceeds n = 120"):
            random_sampling(a, cfg, executor=ex)
        assert ex.seconds == 0.0

    def test_sample_size_above_n_without_power_iterations_runs(self):
        # At q = 0 the l x n sample only goes through QRCP, which takes
        # a tall input: the same shape still returns factors.
        a = np.random.default_rng(1).standard_normal((600, 120))
        f = random_sampling(a, SamplingConfig(rank=120, oversampling=10,
                                              seed=1))
        assert f.q.shape == (600, 120)
        assert f.residual(a) < 1e-10


class TestRankBelowK:
    """A matrix whose rank is below ``k`` makes Step 2's ``R11``
    singular; the solve reports the revealed rank as a typed error."""

    @staticmethod
    def _rank10_matrix():
        rng = np.random.default_rng(0)
        a = np.zeros((600, 120))
        a[:, rng.choice(120, size=10, replace=False)] = \
            rng.standard_normal((600, 10))
        return a

    @pytest.mark.parametrize("executor", [None, GPUExecutor(seed=1)],
                             ids=["numpy", "gpu"])
    def test_raises_typed_error_with_revealed_rank(self, executor):
        cfg = SamplingConfig(rank=20, oversampling=10, power_iterations=1,
                             seed=1)
        with pytest.raises(RankDeficientError,
                           match="numerical rank 10 < k=20") as info:
            random_sampling(self._rank10_matrix(), cfg, executor=executor)
        assert info.value.rank == 10
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ArithmeticError)
        assert isinstance(info.value.__cause__, LinAlgError)

    def test_rank_at_most_revealed_rank_succeeds(self):
        cfg = SamplingConfig(rank=10, oversampling=10, power_iterations=1,
                             seed=1)
        a = self._rank10_matrix()
        f = random_sampling(a, cfg)
        assert f.residual(a) < 1e-8


class TestTimedRuns:
    def test_symbolic_run_produces_breakdown(self):
        ex = GPUExecutor(seed=0)
        cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                             seed=0)
        f = random_sampling(SymArray((50_000, 2_500)), cfg, executor=ex)
        assert f.symbolic
        assert f.seconds > 0
        for phase in ("prng", "sampling", "gemm_iter", "orth_iter",
                      "qrcp", "qr"):
            assert f.breakdown[phase] > 0, phase

    def test_symbolic_result_rejects_numerics(self):
        ex = GPUExecutor(seed=0)
        f = random_sampling(SymArray((1_000, 200)),
                            SamplingConfig(rank=10, seed=0), executor=ex)
        with pytest.raises(SymbolicExecutionError):
            f.approximation()
        with pytest.raises(SymbolicExecutionError):
            f.residual(np.zeros((1_000, 200)))

    def test_real_timed_run_matches_untimed_math(self, decaying_matrix):
        cfg = SamplingConfig(rank=20, power_iterations=1, seed=12)
        ref = random_sampling(decaying_matrix, cfg,
                              executor=NumpyExecutor(seed=12))
        timed = random_sampling(decaying_matrix, cfg,
                                executor=GPUExecutor(seed=12))
        np.testing.assert_allclose(np.asarray(timed.q), np.asarray(ref.q),
                                   atol=1e-10)
        assert timed.seconds > 0

    def test_q0_faster_than_q1(self):
        def run(q):
            ex = GPUExecutor(seed=0)
            cfg = SamplingConfig(rank=54, oversampling=10,
                                 power_iterations=q, seed=0)
            return random_sampling(SymArray((50_000, 2_500)), cfg,
                                   executor=ex).seconds
        assert run(0) < run(1) < run(2)

    def test_speedup_over_qp3_in_paper_band(self):
        """Section 9 headline: up to 12.8x (q=0) and 6.6x (q=1) over
        QP3 at m = 50 000, n = 2 500."""
        from repro.gpu.kernels import KernelModel
        qp3 = KernelModel().qp3_seconds(50_000, 2_500, 54)

        def run(q):
            ex = GPUExecutor(seed=0)
            cfg = SamplingConfig(rank=54, oversampling=10,
                                 power_iterations=q, seed=0)
            return random_sampling(SymArray((50_000, 2_500)), cfg,
                                   executor=ex).seconds
        s0 = qp3 / run(0)
        s1 = qp3 / run(1)
        assert 8.0 < s0 < 16.0
        assert 4.0 < s1 < 9.0

    def test_narrow_matrix_without_trailing_columns(self, rng):
        # n == k: step 3 returns R_bar directly (no T block).
        a = rng.standard_normal((200, 15))
        f = random_sampling(a, SamplingConfig(rank=15, oversampling=5,
                                              seed=0))
        assert f.r.shape == (15, 15)
        assert f.residual(a) < 1e-9
