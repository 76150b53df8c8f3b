"""Tests for the synthetic Table 1 matrices (repro.matrices.synthetic)."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.matrices import gallery, synthetic
from repro.matrices.synthetic import (exponent_matrix, exponent_spectrum,
                                      power_matrix, power_spectrum,
                                      random_orthonormal, spectrum_matrix)

from tests.helpers import assert_orthonormal_columns


class TestRandomOrthonormal:
    def test_orthonormal(self, rng):
        q = random_orthonormal(100, 20, seed=rng)
        assert_orthonormal_columns(q)

    def test_square(self):
        q = random_orthonormal(15, 15, seed=0)
        np.testing.assert_allclose(q @ q.T, np.eye(15), atol=1e-12)

    def test_seeded_reproducible(self):
        np.testing.assert_array_equal(random_orthonormal(30, 5, seed=42),
                                      random_orthonormal(30, 5, seed=42))

    def test_different_seeds_differ(self):
        a = random_orthonormal(30, 5, seed=1)
        b = random_orthonormal(30, 5, seed=2)
        assert not np.allclose(a, b)

    def test_wide_raises(self):
        with pytest.raises(ShapeError):
            random_orthonormal(5, 10)

    def test_haar_sign_convention(self):
        # The sign fix makes the distribution Haar; a necessary symptom
        # is that column means are centered (weak sanity check).
        q = random_orthonormal(2000, 3, seed=3)
        assert np.all(np.abs(q.mean(axis=0)) < 0.05)


class TestSpectra:
    def test_power_values(self):
        s = power_spectrum(5)
        np.testing.assert_allclose(s, [1.0, 2.0 ** -3, 3.0 ** -3,
                                       4.0 ** -3, 5.0 ** -3])

    def test_power_table1_sigma51(self):
        # Table 1: sigma_{k+1} ~ 8e-6 at k = 50.
        s = power_spectrum(500)
        assert s[51] == pytest.approx(52.0 ** -3)
        assert 7e-6 < s[51] < 9e-6

    def test_exponent_values(self):
        s = exponent_spectrum(21)
        assert s[0] == 1.0
        assert s[10] == pytest.approx(0.1)
        assert s[20] == pytest.approx(0.01)

    def test_exponent_table1_sigma51(self):
        # Table 1 quotes sigma_{k+1} ~ 1.3e-5 at k = 50; that value is
        # 10^(-4.9), i.e. the paper's indexing starts the decade count
        # at 1.  Our 0-based s[49] carries it; s[51] = 10^(-5.1).
        s = exponent_spectrum(500)
        assert s[49] == pytest.approx(1.26e-5, rel=0.02)
        assert s[51] == pytest.approx(10 ** -5.1, rel=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            power_spectrum(0)
        with pytest.raises(ShapeError):
            exponent_spectrum(0)


class TestSpectrumMatrix:
    def test_singular_values_match(self, rng):
        spec = np.array([5.0, 2.0, 1.0, 0.1])
        a = spectrum_matrix(50, 20, spec, seed=0)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s[:4], spec, atol=1e-12)
        np.testing.assert_allclose(s[4:], 0.0, atol=1e-12)

    def test_return_factors(self):
        spec = np.array([2.0, 1.0])
        a, x, y = spectrum_matrix(30, 10, spec, seed=1, return_factors=True)
        np.testing.assert_allclose((x * spec) @ y.T, a, atol=1e-14)
        assert_orthonormal_columns(x)
        assert_orthonormal_columns(y)

    def test_spectrum_too_long_raises(self):
        with pytest.raises(ShapeError):
            spectrum_matrix(10, 5, np.ones(6))

    def test_negative_spectrum_raises(self):
        with pytest.raises(ShapeError):
            spectrum_matrix(10, 5, np.array([1.0, -1.0]))

    def test_2d_spectrum_raises(self):
        with pytest.raises(ShapeError):
            spectrum_matrix(10, 5, np.ones((2, 2)))


class TestPaperMatrices:
    def test_power_matrix_spectrum(self):
        a = power_matrix(200, 60, seed=0)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, power_spectrum(60), atol=1e-12)

    def test_exponent_matrix_spectrum(self):
        a = exponent_matrix(200, 60, seed=0)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, exponent_spectrum(60), atol=1e-10)

    def test_kappa_at_k50(self):
        # Table 1 reports kappa = sigma_0/sigma_{k+1}: 1.3e5 (power)
        # and 7.9e4 (exponent); allow for the paper's one-off indexing
        # convention (a factor 10^0.2 for the exponent spectrum).
        sp = power_spectrum(500)
        se = exponent_spectrum(500)
        assert sp[0] / sp[51] == pytest.approx(1.3e5, rel=0.15)
        assert 7.9e4 * 0.8 < se[0] / se[49] < 1.26e5 * 1.2

    def test_seeded(self):
        np.testing.assert_array_equal(power_matrix(50, 20, seed=9),
                                      power_matrix(50, 20, seed=9))


def _numpy_qr_frame(m, n, seed=None, dtype=np.float64):
    """The Haar frame by the earlier recipe: ``numpy.linalg.qr`` of the
    whole draw, then the sign fix on a new array."""
    g = synthetic._as_generator(seed).standard_normal((m, n))
    q, r = np.linalg.qr(g.astype(dtype, copy=False))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _numpy_qr_spectrum_matrix(m, n, spectrum, seed=None, dtype=np.float64,
                              return_factors=False):
    """``spectrum_matrix`` by the earlier recipe (no in-place scaling)."""
    spectrum = np.asarray(spectrum, dtype=dtype)
    rng = synthetic._as_generator(seed)
    x = _numpy_qr_frame(m, spectrum.shape[0], rng, dtype)
    y = _numpy_qr_frame(n, spectrum.shape[0], rng, dtype)
    a = (x * spectrum) @ y.T
    return (a, x, y) if return_factors else a


#: Agreement required with the earlier recipe, as a fraction of max|A|.
#: On one BLAS thread the two agree bit for bit; the slack covers numpy
#: and SciPy linking LAPACK builds that split threaded work
#: differently.  A float32 result may then round one ulp apart.
_RECIPE_TOL = {np.dtype(np.float64): 1e-14,
               np.dtype(np.float32): 4 * np.finfo(np.float32).eps}

_SHAPES = [(300, 80), (80, 300), (120, 120)]
_SEEDS = [0, 1, 7]


def _spec(m, n, dtype=np.float64):
    return exponent_spectrum(min(m, n), dtype=dtype)


#: (module, generator name, args(m, n), kwargs) for every generator
#: that builds Haar frames.
_GENERATORS = {
    "power_matrix": (synthetic, "power_matrix", lambda m, n: (m, n), {}),
    "exponent_matrix": (synthetic, "exponent_matrix",
                        lambda m, n: (m, n), {}),
    "spectrum_matrix": (synthetic, "spectrum_matrix",
                        lambda m, n: (m, n, _spec(m, n)), {}),
    "spectrum_matrix_factors": (synthetic, "spectrum_matrix",
                                lambda m, n: (m, n, _spec(m, n)),
                                {"return_factors": True}),
    "random_orthonormal": (synthetic, "random_orthonormal",
                           lambda m, n: (max(m, n), min(m, n)), {}),
    "devil_stairs": (gallery, "devil_stairs", lambda m, n: (m, n), {}),
    "gap_spectrum_matrix": (gallery, "gap_spectrum_matrix",
                            lambda m, n: (m, n, 10), {}),
    "noisy_lowrank": (gallery, "noisy_lowrank", lambda m, n: (m, n, 10), {}),
    "slow_polynomial_decay": (gallery, "slow_polynomial_decay",
                              lambda m, n: (m, n), {}),
    "power_matrix_f32": (synthetic, "power_matrix", lambda m, n: (m, n),
                         {"dtype": np.float32}),
    "spectrum_matrix_factors_f32": (
        synthetic, "spectrum_matrix",
        lambda m, n: (m, n, _spec(m, n, np.float32)),
        {"return_factors": True, "dtype": np.float32}),
    "random_orthonormal_f32": (synthetic, "random_orthonormal",
                               lambda m, n: (max(m, n), min(m, n)),
                               {"dtype": np.float32}),
}


def _build(module, name, args, kwargs, earlier_recipe=False):
    with pytest.MonkeyPatch.context() as mp:
        if earlier_recipe:
            for mod in (synthetic, gallery):
                mp.setattr(mod, "random_orthonormal", _numpy_qr_frame)
                mp.setattr(mod, "spectrum_matrix", _numpy_qr_spectrum_matrix)
        out = getattr(module, name)(*args, **kwargs)
    return out if isinstance(out, tuple) else (out,)


class TestOneBufferGeneration:
    """The one-buffer generator returns what the ``numpy.linalg.qr``
    recipe returned: same layout and dtype, same values."""

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("case", sorted(_GENERATORS))
    def test_matches_numpy_qr_recipe(self, case, shape, seed):
        module, name, args, kwargs = _GENERATORS[case]
        args = args(*shape)
        kwargs = dict(kwargs, seed=seed)
        got = _build(module, name, args, kwargs)
        want = _build(module, name, args, kwargs, earlier_recipe=True)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.flags.c_contiguous and w.flags.c_contiguous
            scale = float(np.abs(w).max())
            assert float(np.abs(g - w).max()) <= _RECIPE_TOL[w.dtype] * scale

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_frame_is_c_ordered_of_requested_dtype(self, dtype):
        for m, n in [(50, 7), (7, 7), (40, 1)]:
            q = random_orthonormal(m, n, seed=3, dtype=dtype)
            assert q.dtype == dtype and q.shape == (m, n)
            assert q.flags.c_contiguous

    def test_return_factors_keep_x_unscaled(self):
        spec = exponent_spectrum(20)
        a, x, y = spectrum_matrix(60, 20, spec, seed=4, return_factors=True)
        assert_orthonormal_columns(x)
        np.testing.assert_array_equal(a, spectrum_matrix(60, 20, spec,
                                                         seed=4))

    def test_generation_peaks_near_two_matrices(self):
        # The earlier recipe peaked at about 3.1x under tracemalloc
        # (5.0x in RSS: numpy's LAPACK scratch copies are not traced).
        power_matrix(40, 30, seed=0)  # warm imports and LAPACK
        tracemalloc.start()
        try:
            a = power_matrix(4000, 300, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * a.nbytes


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the tool reads /proc/self/status (Linux)")
class TestGenerationMemoryTool:
    """``tools/generation_memory.py``, the report-only CI probe."""

    TOOL = Path(__file__).resolve().parents[1] / "tools" / \
        "generation_memory.py"

    def _run(self, *args):
        env = dict(os.environ)
        src = str(self.TOOL.parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, str(self.TOOL), "--m", "3000", "--n", "200",
             *args], capture_output=True, text=True, env=env, timeout=120)

    def test_reports_seconds_and_ratio(self):
        out = self._run("--max-ratio", "1000")
        assert out.returncode == 0, out.stderr
        row = out.stdout.strip().splitlines()[-1].split("|")
        assert row[1].strip() == "power 3000x200"
        assert float(row[2]) > 0 and float(row[5]) >= 0

    def test_ratio_over_the_bound_fails(self):
        out = self._run("--max-ratio", "0")
        assert out.returncode == 1
        assert "exceeds" in out.stderr
