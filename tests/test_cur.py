"""Tests for the CUR decomposition (repro.core.cur)."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.cur import cur_decomposition
from repro.errors import (ConfigurationError, NonFiniteResultError,
                          ReproError, SymbolicExecutionError)
from repro.gpu.device import GPUExecutor, SymArray
from repro.matrices.hapmap_like import hapmap_like_matrix


class TestCUR:
    def test_exact_on_lowrank(self, lowrank_matrix):
        d = cur_decomposition(lowrank_matrix,
                              SamplingConfig(rank=12, seed=0))
        assert d.residual(lowrank_matrix) < 1e-9

    def test_factors_are_actual_slices(self, lowrank_matrix):
        d = cur_decomposition(lowrank_matrix,
                              SamplingConfig(rank=12, seed=1))
        np.testing.assert_array_equal(d.c, lowrank_matrix[:, d.cols])
        np.testing.assert_array_equal(d.r, lowrank_matrix[d.rows, :])

    def test_index_sets_distinct_and_valid(self, lowrank_matrix):
        m, n = lowrank_matrix.shape
        d = cur_decomposition(lowrank_matrix,
                              SamplingConfig(rank=10, seed=2))
        assert len(set(d.cols.tolist())) == 10
        assert len(set(d.rows.tolist())) == 10
        assert d.cols.max() < n and d.rows.max() < m

    def test_shapes(self, lowrank_matrix):
        d = cur_decomposition(lowrank_matrix,
                              SamplingConfig(rank=8, seed=3))
        m, n = lowrank_matrix.shape
        assert d.c.shape == (m, 8)
        assert d.u.shape == (8, 8)
        assert d.r.shape == (8, n)
        assert d.k == 8

    def test_near_optimal_on_decaying(self, decaying_matrix):
        d = cur_decomposition(decaying_matrix,
                              SamplingConfig(rank=30, power_iterations=1,
                                             seed=4))
        s = np.linalg.svd(decaying_matrix, compute_uv=False)
        # CUR carries an extra conditioning factor; stay within 100x of
        # the optimum on this benign spectrum.
        assert d.residual(decaying_matrix, relative=False) < 100 * s[30]

    def test_genotype_interpretability(self):
        """The HapMap use case: selected columns are actual
        individuals, selected rows actual SNPs."""
        a = hapmap_like_matrix(800, 60, seed=5)
        d = cur_decomposition(a, SamplingConfig(rank=8, seed=6))
        # Columns of C are genotype columns: integer allele counts.
        assert set(np.unique(d.c)).issubset({0.0, 1.0, 2.0})
        assert d.residual(a) < 1.0

    @pytest.mark.parametrize("q", [0, 1])
    def test_sample_size_exceeds_n_rejected(self, q):
        # The A^T pass samples l of the n rows, so l = 130 > n = 120 is
        # refused at every q, naming n, before anything is charged.
        a = np.random.default_rng(1).standard_normal((600, 120))
        ex = GPUExecutor(seed=1)
        with pytest.raises(ConfigurationError,
                           match="l = 130 exceeds n = 120"):
            cur_decomposition(a, SamplingConfig(rank=120, oversampling=10,
                                                power_iterations=q, seed=1),
                              executor=ex)
        assert ex.seconds == 0.0

    def test_symbolic_rejected(self):
        with pytest.raises(SymbolicExecutionError):
            cur_decomposition(SymArray((50, 40)),
                              SamplingConfig(rank=5, seed=0),
                              executor=GPUExecutor(seed=0))

    def test_deterministic(self, lowrank_matrix):
        cfg = SamplingConfig(rank=6, seed=9)
        d1 = cur_decomposition(lowrank_matrix, cfg)
        d2 = cur_decomposition(lowrank_matrix, cfg)
        np.testing.assert_array_equal(d1.cols, d2.cols)
        np.testing.assert_array_equal(d1.rows, d2.rows)

    def test_core_overflow_near_underflow_raises_typed_error(self):
        """Entries near underflow make the core's pseudo-inverses
        overflow: a typed error naming ``u``, never a silent +-Inf."""
        rng = np.random.default_rng(0)
        base = (rng.standard_normal((600, 20))
                @ rng.standard_normal((20, 120)))
        cfg = SamplingConfig(rank=20, oversampling=10, power_iterations=1,
                             seed=1)
        with pytest.raises(NonFiniteResultError) as ei:
            cur_decomposition(base * 1e-310, cfg)
        assert ei.value.factor == "u" and "u" in str(ei.value)
        assert isinstance(ei.value, ReproError)
        assert isinstance(ei.value, ArithmeticError)
        # Ten orders of magnitude up, the core is huge but finite.
        u = cur_decomposition(base * 1e-300, cfg).u
        assert np.all(np.isfinite(u)) and np.max(np.abs(u)) > 1e298
