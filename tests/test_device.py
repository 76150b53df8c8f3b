"""Tests for the simulated device and executors (repro.gpu.device)."""

import numpy as np
import pytest

from repro import AdaptiveConfig, SamplingConfig, adaptive_sampling, \
    random_sampling
from repro.config import ORTH_SCHEMES
from repro.errors import (ConfigurationError, ShapeError,
                          SymbolicExecutionError)
from repro.gpu.device import (GPUExecutor, NumpyExecutor, SimulatedGPU,
                              SymArray, is_symbolic, shape_of)
from repro.gpu.multigpu import MultiGPUExecutor
from repro.gpu.specs import KEPLER_K40C
from repro.matrices import exponent_matrix

from tests.helpers import assert_orthonormal_columns, assert_orthonormal_rows


class TestSymArray:
    def test_shape_and_dtype(self):
        s = SymArray((3, 4))
        assert s.shape == (3, 4)
        assert s.dtype == np.float64
        assert s.ndim == 2
        assert s.size == 12
        assert s.nbytes == 96

    def test_transpose(self):
        assert SymArray((3, 4)).T.shape == (4, 3)

    def test_negative_dim_raises(self):
        with pytest.raises(ShapeError):
            SymArray((-1, 2))

    def test_slicing(self):
        s = SymArray((10, 20))
        assert s[:, :5].shape == (10, 5)
        assert s[2:7, :].shape == (5, 20)
        assert s[:, [1, 3, 5]].shape == (10, 3)

    def test_step_slicing_unsupported(self):
        with pytest.raises(SymbolicExecutionError):
            SymArray((10, 10))[::2, :]

    def test_helpers(self):
        s = SymArray((2, 3))
        a = np.zeros((2, 3))
        assert is_symbolic(s)
        assert is_symbolic(a, s)
        assert not is_symbolic(a)
        assert shape_of(s) == (2, 3)
        assert shape_of(a) == (2, 3)


class TestNumpyExecutorMath:
    """The executor ops must agree with direct NumPy computation."""

    def setup_method(self):
        self.ex = NumpyExecutor(seed=0)
        self.rng = np.random.default_rng(1)
        self.a = self.rng.standard_normal((120, 40))

    def test_prng_shape_and_determinism(self):
        w1 = NumpyExecutor(seed=5).prng_gaussian(8, 30)
        w2 = NumpyExecutor(seed=5).prng_gaussian(8, 30)
        np.testing.assert_array_equal(w1, w2)
        assert w1.shape == (8, 30)

    def test_sample_gemm(self):
        omega = self.ex.prng_gaussian(10, 120)
        b = self.ex.sample_gemm(omega, self.a)
        np.testing.assert_allclose(b, omega @ self.a)

    def test_sample_gemm_shape_mismatch(self):
        with pytest.raises(ShapeError):
            self.ex.sample_gemm(np.zeros((3, 7)), self.a)

    def test_iter_gemms(self):
        b = self.rng.standard_normal((10, 40))
        c = self.ex.iter_gemm_at(b, self.a)
        np.testing.assert_allclose(c, b @ self.a.T)
        b2 = self.ex.iter_gemm_a(c, self.a)
        np.testing.assert_allclose(b2, c @ self.a)

    @pytest.mark.parametrize("scheme", ["cholqr", "cholqr2", "householder",
                                        "cgs", "mgs", "tsqr",
                                        "mixed_cholqr"])
    def test_orth_rows_all_schemes(self, scheme):
        b = self.rng.standard_normal((12, 200))
        q = self.ex.orth_rows(b, scheme=scheme)
        assert q.shape == b.shape
        assert_orthonormal_rows(q, tol=1e-8)
        # Row span must be preserved: projecting b on q recovers b.
        np.testing.assert_allclose((b @ q.T) @ q, b, atol=1e-8)

    def test_orth_rows_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            self.ex.orth_rows(np.zeros((2, 10)), scheme="qr_deluxe")

    def test_orth_rows_tall_raises(self):
        with pytest.raises(ShapeError):
            self.ex.orth_rows(np.zeros((10, 2)))

    def test_block_orth_rows(self):
        q = np.linalg.qr(self.rng.standard_normal((200, 8)))[0].T
        v = self.rng.standard_normal((4, 200))
        w = self.ex.block_orth_rows(q, v)
        np.testing.assert_allclose(w @ q.T, 0.0, atol=1e-12)

    def test_block_orth_none_passthrough(self):
        v = self.rng.standard_normal((4, 50))
        w = self.ex.block_orth_rows(None, v)
        # Nothing to project out: the input block itself comes back.
        assert w is v

    def test_qrcp_sampled(self):
        b = self.rng.standard_normal((12, 60))
        q, r, perm = self.ex.qrcp_sampled(b, k=8)
        # The 8 factored pivot columns are reproduced exactly; the rest
        # only approximately (rank-8 truncation of a rank-12 matrix).
        np.testing.assert_allclose(q @ r[:, :8], b[:, perm[:8]],
                                   atol=1e-10)
        assert q.shape == (12, 8)
        assert r.shape == (8, 60)
        assert sorted(perm.tolist()) == list(range(60))

    def test_take_columns(self):
        out = self.ex.take_columns(self.a, [3, 1, 2])
        np.testing.assert_array_equal(out, self.a[:, [3, 1, 2]])

    def test_qr_selected(self):
        ap = self.a[:, :10]
        q, r = self.ex.qr_selected(ap)
        assert_orthonormal_columns(q)
        np.testing.assert_allclose(q @ r, ap, atol=1e-10)

    def test_qr_selected_wide_raises(self):
        with pytest.raises(ShapeError):
            self.ex.qr_selected(np.zeros((5, 10)))

    def test_solve_upper(self):
        r11 = np.triu(self.rng.standard_normal((6, 6))) + 6 * np.eye(6)
        r12 = self.rng.standard_normal((6, 9))
        t = self.ex.solve_upper(r11, r12)
        np.testing.assert_allclose(r11 @ t, r12, atol=1e-10)

    def test_assemble_r(self):
        rbar = np.triu(self.rng.standard_normal((5, 5)))
        t = self.rng.standard_normal((5, 7))
        r = self.ex.assemble_r(rbar, t)
        np.testing.assert_allclose(r[:, :5], rbar)
        np.testing.assert_allclose(r[:, 5:], rbar @ t)

    def test_estimate_error_matches_direct(self):
        q = np.linalg.qr(self.rng.standard_normal((200, 10)))[0].T
        bnew = self.rng.standard_normal((5, 200))
        est = self.ex.estimate_error(bnew, q)
        direct = np.linalg.norm(bnew - (bnew @ q.T) @ q, ord=2)
        assert est == pytest.approx(direct)

    def test_vstack(self):
        a = np.ones((2, 4))
        b = np.zeros((3, 4))
        out = self.ex.vstack([a, b])
        assert out.shape == (5, 4)

    def test_vstack_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.ex.vstack([np.ones((2, 4)), np.ones((2, 5))])

    def test_seconds_zero(self):
        self.ex.sample_gemm(np.ones((2, 3)), np.ones((3, 4)))
        assert self.ex.seconds == 0.0

    def test_symbolic_rejected(self):
        with pytest.raises(SymbolicExecutionError):
            self.ex.prng_gaussian(2, 3, symbolic=True)


class TestTransfers:
    def test_executor_transfers_are_bit_identical(self):
        ex = NumpyExecutor(seed=0)
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        d = ex.to_device(a)
        h = ex.to_host(d)
        assert h.dtype == a.dtype
        np.testing.assert_array_equal(h, a)

    def test_symbolic_arrays_pass_through(self):
        ex = NumpyExecutor(seed=0)
        s = SymArray((64, 64))
        assert ex.to_device(s) is s
        assert ex.to_host(s) is s


def _gallery_sample(name, m=300, n=120, l=28):
    """The sampled matrix Step 2 sees: Gaussian sketch + one power
    iteration of a gallery matrix, as in ``random_sampling``."""
    from repro.core.power import power_iterate
    from repro.core.sampling import sample
    from repro.matrices.registry import get_matrix
    a = get_matrix(name, m, n, seed=3, readonly=True)
    ex = NumpyExecutor(seed=11)
    b, _ = power_iterate(ex, a, sample(ex, a, l, kind="gaussian"), q=1,
                         scheme="cholqr2", reorthogonalize=True)
    return b


class TestBlockOrthWithoutBasis:
    """With no previous rows, ``block_orth_rows`` returns its input, and
    every caller hands that block to ``orth_rows``.  Sharing it is safe
    because no orthogonalization kernel writes into its input."""

    @pytest.mark.parametrize("scheme", ORTH_SCHEMES)
    @pytest.mark.parametrize("dependent", [False, True])
    def test_orth_rows_never_writes_its_input(self, scheme, dependent):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((12, 200))
        if dependent:
            # Rows within 1e-9 of each other send cholqr and cholqr2 to
            # their Householder fallback and mixed_cholqr to its shift.
            b[6:] = b[:6] + 1e-9 * rng.standard_normal((6, 200))
        kept = b.copy()
        b.flags.writeable = False  # a write raises instead of passing
        for ex in (NumpyExecutor(), GPUExecutor(seed=0)):
            ex.orth_rows(b, scheme=scheme)
            np.testing.assert_array_equal(b, kept)

    @pytest.mark.parametrize("make", [
        lambda: NumpyExecutor(seed=0), lambda: GPUExecutor(seed=0),
        lambda: MultiGPUExecutor(2, seed=0)],
        ids=["numpy", "gpu", "multigpu2"])
    def test_runs_match_a_copying_passthrough(self, make, monkeypatch):
        a = exponent_matrix(400, 120, seed=7)

        def run():
            f = random_sampling(a, SamplingConfig(rank=10, seed=3,
                                                  power_iterations=2),
                                executor=make())
            r = adaptive_sampling(a, AdaptiveConfig(tolerance=1e-6, seed=3,
                                                    power_iterations=1),
                                  executor=make())
            return [f.q, f.r, f.perm, f.seconds, r.basis, r.seconds,
                    [s.error_estimate for s in r.steps]]

        passthrough = run()
        shared = NumpyExecutor.block_orth_rows
        copies = []

        def copying(self, q_prev, v, reorth=True, phase="orth_iter"):
            w = shared(self, q_prev, v, reorth=reorth, phase=phase)
            if w is not v:
                return w
            copies.append(v.shape)
            return np.array(v, copy=True)

        monkeypatch.setattr(NumpyExecutor, "block_orth_rows", copying)
        copied = run()
        assert copies  # both drivers took the no-basis branch
        for got, want in zip(passthrough, copied):
            np.testing.assert_array_equal(got, want, strict=True)


class TestQRCPSampledGeqp3:
    """Step 2 runs LAPACK geqp3 and must pick QP3's pivots."""

    @pytest.mark.parametrize("name", ["power", "exponent", "hapmap"])
    def test_agrees_with_qp3_blocked(self, name):
        from repro.qr.qrcp import qp3_blocked
        k = 20
        b = _gallery_sample(name)
        q, r, perm = NumpyExecutor(seed=0).qrcp_sampled(b, k)
        ref = qp3_blocked(b, k)
        assert q.shape == (b.shape[0], k) and r.shape == (k, b.shape[1])
        np.testing.assert_array_equal(perm[:k], ref.perm[:k])
        np.testing.assert_allclose(np.abs(np.diag(r)),
                                   np.abs(np.diag(ref.r)), rtol=1e-12)
        # The k factored pivot columns are reproduced to round-off; the
        # truncated remainder leaves the same residual as QP3's.
        nb = np.linalg.norm(b)
        assert np.linalg.norm(b[:, perm[:k]] - q @ r[:, :k]) <= 1e-12 * nb
        resid = np.linalg.norm(b[:, perm] - q @ r) / nb
        ref_resid = np.linalg.norm(b[:, ref.perm] - ref.q @ ref.r) / nb
        assert resid == pytest.approx(ref_resid, rel=1e-8)

    def test_full_rank_reconstructs(self):
        b = _gallery_sample("power")
        l = b.shape[0]
        q, r, perm = NumpyExecutor(seed=0).qrcp_sampled(b, l)
        assert sorted(perm.tolist()) == list(range(b.shape[1]))
        assert np.linalg.norm(b[:, perm] - q @ r) \
            <= 1e-12 * np.linalg.norm(b)

    def test_timed_as_one_backend_kernel(self):
        b = _gallery_sample("power")
        ex = NumpyExecutor(seed=0)
        calls = ex.backend.stats.kernel_calls
        ex.qrcp_sampled(b, 20)
        assert ex.backend.stats.kernel_calls == calls + 1


class TestGPUExecutorTiming:
    def setup_method(self):
        self.ex = GPUExecutor(seed=0)

    def test_phases_charged(self):
        a = SymArray((50_000, 2_500))
        omega = self.ex.prng_gaussian(64, 50_000, symbolic=True)
        b = self.ex.sample_gemm(omega, a)
        assert self.ex.timeline.seconds("prng") > 0
        assert self.ex.timeline.seconds("sampling") > 0
        assert isinstance(b, SymArray)
        assert b.shape == (64, 2_500)

    def test_symbolic_qrcp_placeholder_perm(self):
        b = SymArray((64, 2_500))
        calls = self.ex.backend.stats.kernel_calls
        q, r, perm = self.ex.qrcp_sampled(b, 54)
        assert isinstance(q, SymArray) and q.shape == (64, 54)
        assert r.shape == (54, 2_500)
        np.testing.assert_array_equal(perm, np.arange(2_500))
        assert self.ex.timeline.seconds("qrcp") > 0
        # The placeholder is made without a backend call.
        assert self.ex.backend.stats.kernel_calls == calls

    def test_real_math_matches_numpy_executor(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 30))
        b = rng.standard_normal((8, 30))
        gpu = GPUExecutor(seed=0)
        ref = NumpyExecutor(seed=0)
        np.testing.assert_allclose(gpu.iter_gemm_at(b, a),
                                   ref.iter_gemm_at(b, a))
        assert gpu.seconds > 0

    def test_reset_clock(self):
        self.ex.prng_gaussian(8, 100, symbolic=True)
        assert self.ex.seconds > 0
        self.ex.reset_clock()
        assert self.ex.seconds == 0.0

    def test_orth_scheme_timing_differs(self):
        b = SymArray((64, 10_000))
        e1 = GPUExecutor(seed=0)
        e1.orth_rows(b, scheme="cholqr")
        e2 = GPUExecutor(seed=0)
        e2.orth_rows(b, scheme="householder")
        assert e2.seconds > 5 * e1.seconds

    def test_estimate_error_symbolic_raises(self):
        with pytest.raises(SymbolicExecutionError):
            self.ex.estimate_error(SymArray((4, 100)), SymArray((8, 100)))

    def test_fft_sample_symbolic(self):
        b = self.ex.fft_sample(SymArray((1000, 50)), 16)
        assert isinstance(b, SymArray) and b.shape == (16, 50)
        assert self.ex.timeline.seconds("sampling") > 0

    def test_fft_sample_too_many_rows(self):
        with pytest.raises(ShapeError):
            self.ex.fft_sample(SymArray((10, 5)), 20)


class TestSimulatedGPU:
    def test_elapsed_tracks_charges(self):
        dev = SimulatedGPU()
        dev.charge("qr", 0.5)
        assert dev.elapsed == pytest.approx(0.5)

    def test_reset(self):
        dev = SimulatedGPU()
        dev.charge("qr", 0.5)
        dev.memory.allocate(100)
        dev.reset()
        assert dev.elapsed == 0.0
        assert dev.memory.used == 0

    def test_spec_attached(self):
        assert SimulatedGPU().spec is KEPLER_K40C
