"""Tests for result types and error measures (repro.core.lowrank)."""

import numpy as np
import pytest

from repro.core.lowrank import (LowRankFactors, best_rank_k_error,
                                spectral_error)
from repro.errors import ShapeError, SymbolicExecutionError
from repro.gpu.device import SymArray


class TestSpectralError:
    def test_zero_for_exact(self, rng):
        a = rng.standard_normal((20, 10))
        assert spectral_error(a, a.copy()) == 0.0

    def test_relative_normalization(self, rng):
        a = rng.standard_normal((20, 10))
        err_abs = spectral_error(a, np.zeros_like(a), relative=False)
        assert err_abs == pytest.approx(np.linalg.norm(a, 2))
        assert spectral_error(a, np.zeros_like(a)) == pytest.approx(1.0)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            spectral_error(rng.standard_normal((3, 3)),
                           rng.standard_normal((3, 4)))


class TestBestRankK:
    def test_matches_svd_tail(self, decaying_matrix):
        s = np.linalg.svd(decaying_matrix, compute_uv=False)
        assert best_rank_k_error(decaying_matrix, 10,
                                 relative=False) == pytest.approx(s[10])
        assert best_rank_k_error(decaying_matrix, 10) == pytest.approx(
            s[10] / s[0])

    def test_zero_beyond_rank(self, lowrank_matrix):
        assert best_rank_k_error(lowrank_matrix, 80) == 0.0


class TestLowRankFactors:
    def _factors(self, rng):
        q = np.linalg.qr(rng.standard_normal((50, 5)))[0]
        r = rng.standard_normal((5, 20))
        perm = np.random.default_rng(0).permutation(20)
        return LowRankFactors(q=q, r=r, perm=perm, k=5, sample_size=8,
                              power_iterations=0)

    def test_approximation_undoes_permutation(self, rng):
        f = self._factors(rng)
        approx = f.approximation()
        np.testing.assert_allclose(approx[:, f.perm], f.q @ f.r)

    def test_residual_zero_for_consistent_a(self, rng):
        f = self._factors(rng)
        a = f.approximation()
        assert f.residual(a) < 1e-12

    def test_suboptimality_at_least_one(self, rng, decaying_matrix):
        from repro import SamplingConfig, random_sampling
        f = random_sampling(decaying_matrix,
                            SamplingConfig(rank=20, power_iterations=1,
                                           seed=0))
        assert f.suboptimality(decaying_matrix) >= 0.99

    def test_symbolic_flag_and_guards(self):
        f = LowRankFactors(q=SymArray((10, 2)), r=SymArray((2, 5)),
                           perm=np.arange(5), k=2, sample_size=3,
                           power_iterations=0)
        assert f.symbolic
        with pytest.raises(SymbolicExecutionError):
            f.approximation()

    def test_real_flag(self, rng):
        assert not self._factors(rng).symbolic


class TestDiagnosticsInPlace:
    """The Figure 6/16 error norms subtract into a buffer they already
    own; the values keep the bits of the three-array formulas."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_residuals_match_three_array_formula(self, decaying_matrix,
                                                 dtype):
        from repro import SamplingConfig, random_sampling
        from repro.backends import hostmath
        from repro.qr.qrcp import qp3_blocked
        a = decaying_matrix.astype(dtype)
        kept = a.copy()
        f = random_sampling(a, SamplingConfig(rank=20, seed=0))
        qp3 = qp3_blocked(a, k=20)
        for rel in (True, False):
            assert f.residual(a, relative=rel) == spectral_error(
                a[:, f.perm], f.q @ f.r, relative=rel)
            err = hostmath.norm2(a[:, qp3.perm] - qp3.q @ qp3.r)
            want = err / hostmath.norm2(a) if rel else err
            assert qp3.residual(a, relative=rel) == want
        np.testing.assert_array_equal(a, kept)

    def test_residual_shape_mismatch_raises(self, rng):
        f = TestLowRankFactors()._factors(rng)
        with pytest.raises(ShapeError):
            f.residual(np.zeros((7, f.perm.size)))

    def test_actual_error_matches_three_array_formula(self,
                                                      decaying_matrix):
        from repro import AdaptiveConfig, adaptive_sampling
        from repro.backends import hostmath
        a = decaying_matrix
        kept = a.copy()
        res = adaptive_sampling(a, AdaptiveConfig(tolerance=1e-4, seed=0))
        b = res.basis
        err = hostmath.norm2(a - (a @ b.T) @ b)
        assert res.actual_error(a) == err
        assert res.actual_error(a, relative=True) == \
            err / hostmath.norm2(a)
        np.testing.assert_array_equal(a, kept)
