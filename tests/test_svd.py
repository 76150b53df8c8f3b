"""Tests for the randomized SVD (repro.core.svd)."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.svd import randomized_svd
from repro.errors import ConfigurationError, SymbolicExecutionError
from repro.gpu.device import GPUExecutor, NumpyExecutor, SymArray

from tests.helpers import assert_orthonormal_columns


class TestRandomizedSVD:
    def test_exact_on_lowrank(self, lowrank_matrix):
        f = randomized_svd(lowrank_matrix, SamplingConfig(rank=12, seed=0))
        assert f.residual(lowrank_matrix) < 1e-10

    def test_factor_shapes_and_orthogonality(self, decaying_matrix):
        f = randomized_svd(decaying_matrix,
                           SamplingConfig(rank=25, seed=1))
        assert f.u.shape == (400, 25)
        assert f.vt.shape == (25, 120)
        assert f.s.shape == (25,)
        assert_orthonormal_columns(f.u, tol=1e-8)
        assert_orthonormal_columns(f.vt.T, tol=1e-8)

    def test_singular_values_descending(self, decaying_matrix):
        f = randomized_svd(decaying_matrix,
                           SamplingConfig(rank=20, seed=2))
        assert all(a >= b for a, b in zip(f.s, f.s[1:]))

    def test_singular_values_accurate_with_power(self, decaying_matrix):
        f = randomized_svd(decaying_matrix,
                           SamplingConfig(rank=20, power_iterations=2,
                                          seed=3))
        s_true = np.linalg.svd(decaying_matrix, compute_uv=False)[:20]
        np.testing.assert_allclose(f.s, s_true, rtol=1e-3)

    def test_error_near_optimal(self, decaying_matrix):
        f = randomized_svd(decaying_matrix,
                           SamplingConfig(rank=30, power_iterations=1,
                                          seed=4))
        s = np.linalg.svd(decaying_matrix, compute_uv=False)
        assert f.residual(decaying_matrix, relative=False) < 5 * s[30]

    def test_deterministic(self, decaying_matrix):
        cfg = SamplingConfig(rank=10, seed=5)
        f1 = randomized_svd(decaying_matrix, cfg)
        f2 = randomized_svd(decaying_matrix, cfg)
        np.testing.assert_array_equal(f1.s, f2.s)

    def test_timed_run(self, decaying_matrix):
        ex = GPUExecutor(seed=6)
        f = randomized_svd(decaying_matrix, SamplingConfig(rank=10,
                                                           seed=6),
                           executor=ex)
        assert f.seconds > 0

    @pytest.mark.parametrize("q", [0, 1])
    def test_sample_size_exceeds_n_rejected(self, q):
        # Stage A orthonormalizes the l x n sample at every q, so
        # l = 130 > n = 120 is refused before anything is charged.
        a = np.random.default_rng(1).standard_normal((600, 120))
        ex = GPUExecutor(seed=1)
        with pytest.raises(ConfigurationError,
                           match="l = 130 exceeds n = 120"):
            randomized_svd(a, SamplingConfig(rank=120, oversampling=10,
                                             power_iterations=q, seed=1),
                           executor=ex)
        assert ex.seconds == 0.0

    def test_symbolic_rejected(self):
        with pytest.raises(SymbolicExecutionError):
            randomized_svd(SymArray((100, 50)),
                           SamplingConfig(rank=10, seed=0),
                           executor=GPUExecutor(seed=0))

    def test_k_property(self, lowrank_matrix):
        f = randomized_svd(lowrank_matrix, SamplingConfig(rank=12,
                                                          seed=7))
        assert f.k == 12
