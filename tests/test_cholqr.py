"""Tests for CholQR and its stabilized variants (repro.qr.cholqr)."""

import numpy as np
import pytest

from repro.backends.numpy_backend import NumpyBackend
from repro.errors import CholeskyBreakdownError, ShapeError
from repro.matrices.synthetic import exponent_spectrum, spectrum_matrix
from repro.qr.cholqr import (cholqr2_columns, cholqr2_rows, cholqr_columns,
                             cholqr_rows, mixed_precision_cholqr_rows)

from tests.helpers import assert_orthonormal_columns, assert_orthonormal_rows


class TestCholQRColumns:
    def test_reconstruction(self, tall_matrix):
        q, r = cholqr_columns(tall_matrix)
        np.testing.assert_allclose(q @ r, tall_matrix, atol=1e-10)

    def test_orthonormal(self, tall_matrix):
        q, _ = cholqr_columns(tall_matrix)
        assert_orthonormal_columns(q)

    def test_r_upper_triangular(self, tall_matrix):
        _, r = cholqr_columns(tall_matrix)
        np.testing.assert_allclose(r, np.triu(r))

    def test_r_diag_positive(self, tall_matrix):
        _, r = cholqr_columns(tall_matrix)
        assert np.all(np.diag(r) > 0)

    def test_matches_numpy_qr_up_to_sign(self, tall_matrix):
        q, r = cholqr_columns(tall_matrix)
        q_np, r_np = np.linalg.qr(tall_matrix)
        s = np.sign(np.diag(r_np))
        np.testing.assert_allclose(q, q_np * s, atol=1e-9)

    def test_square_input(self, rng):
        a = rng.standard_normal((20, 20))
        q, r = cholqr_columns(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-9)

    def test_wide_raises(self, wide_matrix):
        with pytest.raises(ShapeError):
            cholqr_columns(wide_matrix)

    def test_singular_raises(self, rng):
        a = rng.standard_normal((50, 3))
        a = np.hstack([a, a])  # exactly dependent columns
        with pytest.raises(CholeskyBreakdownError):
            cholqr_columns(a)

    def test_singular_householder_fallback(self, rng):
        a = rng.standard_normal((50, 3))
        a = np.hstack([a, a])
        q, r = cholqr_columns(a, fallback="householder")
        assert_orthonormal_columns(q)
        np.testing.assert_allclose(q @ r, a, atol=1e-9)

    def test_illconditioned_shift_fallback(self):
        # kappa ~ 1e12: the Gram matrix has kappa ~ 1e24 and POTRF
        # breaks down; the shifted retry plus one reorthogonalization
        # still delivers near-orthonormal Q (theory only guarantees
        # full recovery for kappa <~ 1e8).
        a = spectrum_matrix(300, 40, 10.0 ** (-np.linspace(0, 12, 40)),
                            seed=3)
        q, r = cholqr_columns(a, fallback="shift")
        assert_orthonormal_columns(q, tol=1e-5)
        np.testing.assert_allclose(q @ r, a, atol=1e-8)


class TestShiftScale:
    """The shifted retry scales its shift by ``trace(G)``, not by an
    SVD-computed ``||G||_2``."""

    @pytest.mark.parametrize("rows", [False, True])
    def test_shift_runs_no_svd(self, monkeypatch, rows):
        # kappa ~ 1e12: POTRF breaks down on the Gram matrix, so the
        # shifted retry must run (counted below).
        import repro.qr.cholqr as cholqr_mod
        shifted = []
        real_shift = cholqr_mod._shifted_chol_upper

        def counting_shift(g, backend):
            shifted.append(g.shape)
            return real_shift(g, backend)

        monkeypatch.setattr(cholqr_mod, "_shifted_chol_upper",
                            counting_shift)
        bk = NumpyBackend()
        spectral = []
        for name in ("svd", "norm"):
            def counted(*args, _real=getattr(bk, name), _name=name,
                        **kwargs):
                spectral.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(bk, name, counted)
        sigma = 10.0 ** (-np.linspace(0, 12, 40))
        if rows:
            b = spectrum_matrix(40, 300, sigma, seed=3)
            q, r = cholqr_rows(b, fallback="shift", backend=bk)
            assert_orthonormal_rows(q, tol=1e-5)
            np.testing.assert_allclose(r.T @ q, b, atol=1e-8)
        else:
            a = spectrum_matrix(300, 40, sigma, seed=3)
            q, r = cholqr_columns(a, fallback="shift", backend=bk)
            assert_orthonormal_columns(q, tol=1e-5)
            np.testing.assert_allclose(q @ r, a, atol=1e-8)
        assert shifted == [(40, 40)]
        assert spectral == []

    def test_zero_gram_still_raises(self):
        with pytest.raises(CholeskyBreakdownError,
                           match="Gram matrix is zero"):
            cholqr_columns(np.zeros((30, 4)), fallback="shift")


class TestCholQRRows:
    def test_reconstruction(self, wide_matrix):
        q, r = cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-10)

    def test_orthonormal_rows(self, wide_matrix):
        q, _ = cholqr_rows(wide_matrix)
        assert_orthonormal_rows(q)

    def test_r_upper_triangular(self, wide_matrix):
        _, r = cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r, np.triu(r))

    def test_tall_raises(self, tall_matrix):
        with pytest.raises(ShapeError):
            cholqr_rows(tall_matrix)

    def test_singular_raises(self, rng):
        b = rng.standard_normal((3, 80))
        b = np.vstack([b, b])
        with pytest.raises(CholeskyBreakdownError):
            cholqr_rows(b)

    def test_singular_householder_fallback(self, rng):
        b = rng.standard_normal((3, 80))
        b = np.vstack([b, b])
        q, r = cholqr_rows(b, fallback="householder")
        assert_orthonormal_rows(q)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-9)

    def test_shift_fallback_consistent(self):
        b = spectrum_matrix(30, 400, 10.0 ** (-np.linspace(0, 12, 30)),
                            seed=5)
        q, r = cholqr_rows(b, fallback="shift")
        assert_orthonormal_rows(q, tol=1e-5)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-8)


class TestCholQR2:
    def test_columns_reconstruction(self, tall_matrix):
        q, r = cholqr2_columns(tall_matrix)
        np.testing.assert_allclose(q @ r, tall_matrix, atol=1e-10)
        assert_orthonormal_columns(q, tol=1e-13)

    def test_rows_reconstruction(self, wide_matrix):
        q, r = cholqr2_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-10)
        assert_orthonormal_rows(q, tol=1e-13)

    def test_improves_orthogonality_on_illconditioned(self):
        b = spectrum_matrix(40, 500, 10.0 ** (-np.linspace(0, 7, 40)),
                            seed=2)
        q1, _ = cholqr_rows(b, fallback="shift")
        q2, _ = cholqr2_rows(b, fallback="shift")
        d1 = np.linalg.norm(q1 @ q1.T - np.eye(40))
        d2 = np.linalg.norm(q2 @ q2.T - np.eye(40))
        assert d2 < d1
        assert d2 < 1e-12


class TestMixedPrecisionCholQR:
    def test_reconstruction(self, wide_matrix):
        q, r = mixed_precision_cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-9)

    def test_final_orthogonality_is_double(self, wide_matrix):
        q, _ = mixed_precision_cholqr_rows(wide_matrix)
        assert_orthonormal_rows(q, tol=1e-12)

    def test_tall_raises(self, tall_matrix):
        with pytest.raises(ShapeError):
            mixed_precision_cholqr_rows(tall_matrix)

    def test_moderately_illconditioned(self):
        # kappa ~ 1e4: the float32 Gram matrix (kappa^2 ~ 1e8) is at the
        # edge of single precision; the double-precision corrective pass
        # must still restore full orthogonality.
        b = spectrum_matrix(30, 300, 10.0 ** (-np.linspace(0, 4, 30)),
                            seed=9)
        q, r = mixed_precision_cholqr_rows(b)
        assert_orthonormal_rows(q, tol=1e-10)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-7)
