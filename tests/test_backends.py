"""Backend registry, selection, parity, and schema-v2 artifact tests.

The contract under test (see ``docs/backends.md``):

- ``SimulatedBackend`` and ``NumpyBackend`` share every kernel, so the
  full pipeline is bit-identical between them on real matrices;
- optional hardware backends (torch/cupy) register as unavailable when
  their dependency is missing and never break import;
- backend selection round-trips through config, env, and both CLIs;
- BENCH artifacts carry ``backend`` + ``wall_clock_s`` (schema v2) and
  ``obs diff`` survives a v1-vs-v2 comparison;
- RS114 keeps raw linalg from leaking outside ``repro/backends``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (BACKENDS, DEFAULT_BACKEND, CupyBackend,
                            NumpyBackend, SimulatedBackend, TorchBackend,
                            available_backends, default_backend_name,
                            detect_backend, get_default_backend, hostmath,
                            make_backend, resolve_backend)
from repro.backends.base import BackendStats, ComputeBackend
from repro.config import AdaptiveConfig, SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.errors import (CholeskyBreakdownError, ConfigurationError,
                          NonFiniteResultError, ShapeError)
from repro.matrices.registry import get_matrix, list_matrices

torch_missing = not TorchBackend.available()


# ---------------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_registry_names(self):
        assert list(BACKENDS) == ["simulated", "numpy", "torch", "cupy"]
        assert DEFAULT_BACKEND == "simulated"

    def test_model_backends_always_available(self):
        assert SimulatedBackend.available()
        assert NumpyBackend.available()
        for name in ("simulated", "numpy"):
            assert name in available_backends()

    def test_detect_backend_is_available(self):
        assert BACKENDS[detect_backend()].available()

    def test_make_backend_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("mkl")

    def test_make_backend_unavailable_lists_alternatives(self):
        missing = [n for n in BACKENDS if not BACKENDS[n].available()]
        if not missing:
            pytest.skip("every registered backend is installed here")
        with pytest.raises(ConfigurationError,
                           match="not available") as exc:
            make_backend(missing[0])
        assert "simulated" in str(exc.value)

    def test_make_backend_normalizes_case(self):
        assert make_backend("  NumPy ").name == "numpy"

    def test_default_backend_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "simulated"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert default_backend_name() == detect_backend()

    def test_resolve_backend_forms(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst
        assert resolve_backend("numpy").name == "numpy"
        assert isinstance(resolve_backend(None), ComputeBackend)
        with pytest.raises(ConfigurationError, match="spec"):
            resolve_backend(3.14)

    def test_get_default_backend_caches(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_default_backend() is get_default_backend()

    def test_optional_backends_report_unavailability(self):
        # Never raises at import/probe time, with or without the dep.
        assert isinstance(TorchBackend.available(), bool)
        assert isinstance(CupyBackend.available(), bool)


# ---------------------------------------------------------------------------
# Kernel contract
# ---------------------------------------------------------------------------
class TestKernelContract:
    def test_stats_accounting(self):
        bk = NumpyBackend()
        assert bk.stats.kernel_calls == 0
        a = np.eye(4)
        bk.gemm(a, a)
        bk.svd(a)
        assert bk.stats.kernel_calls == 2
        assert bk.stats.wall_seconds >= 0.0
        d = bk.stats.to_dict()
        assert set(d) >= {"kernel_calls", "wall_seconds",
                          "h2d_bytes", "d2h_bytes"}
        bk.stats.reset()
        assert bk.stats.kernel_calls == 0

    def test_cholesky_contract_upper(self):
        bk = NumpyBackend()
        rng = bk.make_rng(0)
        a = bk.standard_normal(rng, (30, 6))
        g = a.T @ a
        r = bk.cholesky(g)
        assert np.allclose(np.tril(r, -1), 0.0)
        assert np.allclose(r.T @ r, g)

    def test_cholesky_breakdown(self):
        bk = NumpyBackend()
        with pytest.raises(CholeskyBreakdownError):
            bk.cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("name", [
        "simulated", "numpy",
        pytest.param("torch", marks=pytest.mark.skipif(
            torch_missing, reason="torch not installed"))])
    @pytest.mark.parametrize("scale", [1e200, np.nan])
    def test_cholesky_of_non_finite_gram_is_not_a_breakdown(self, name,
                                                            scale):
        # An overflowed Gram is no breakdown a shift could repair: the
        # typed error must stay out of every CholeskyBreakdownError
        # fallback, on every backend.
        b = scale * np.random.default_rng(0).standard_normal((4, 30))
        with np.errstate(over="ignore", invalid="ignore"):
            g = b @ b.T
        with pytest.raises(NonFiniteResultError) as ei:
            make_backend(name).cholesky(g)
        assert ei.value.factor == "gram"
        assert not isinstance(ei.value, CholeskyBreakdownError)

    def test_rng_shared_across_backends(self):
        # Omega must be backend-independent: always numpy PCG64.
        draws = []
        for name in ("simulated", "numpy"):
            bk = make_backend(name)
            draws.append(bk.standard_normal(bk.make_rng(42), (8, 3)))
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_solve_triangular_trans(self):
        bk = NumpyBackend()
        r = np.triu(np.arange(1.0, 10.0).reshape(3, 3) + 3 * np.eye(3))
        b = np.arange(6.0).reshape(3, 2)
        x = bk.solve_triangular(r, b, lower=False, trans="T")
        np.testing.assert_allclose(r.T @ x, b)

    def test_hostmath_matches_numpy(self):
        a = np.arange(12.0).reshape(4, 3)
        assert hostmath.norm2(a) == pytest.approx(np.linalg.norm(a, 2))
        np.testing.assert_allclose(hostmath.svdvals(a),
                                   np.linalg.svd(a, compute_uv=False))

    def test_qr_in_place_factors_a_tall_fortran_buffer(self):
        a = np.asfortranarray(np.random.default_rng(0).standard_normal(
            (40, 7)))
        want_r = np.linalg.qr(a)[1]
        buf = a.copy(order="F")
        q, r = hostmath.qr_in_place(buf)
        assert np.shares_memory(q, buf)
        np.testing.assert_allclose(q @ r, a, atol=1e-13)
        np.testing.assert_allclose(np.abs(r), np.abs(want_r), atol=1e-13)

    @pytest.mark.parametrize("bad", [
        np.ones((40, 7), dtype=np.float32),   # single precision in SciPy
        np.ones((7, 40)),                     # wide: Q is not a's buffer
        np.ones(40),
    ], ids=["float32", "wide", "vector"])
    def test_qr_in_place_refuses_other_inputs(self, bad):
        with pytest.raises(ShapeError, match="tall 2-D float64"):
            hostmath.qr_in_place(bad)


# ---------------------------------------------------------------------------
# Triangular solve: right-side trsm on the transpose, scipy's contract
# ---------------------------------------------------------------------------
def _triangular(n=12, lower=False, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n)) + n * np.eye(n)
    return np.tril(t) if lower else np.triu(t)


def _right_hand_sides(n=12, seed=1):
    """The layouts CholQR and Step 3 hand the solve."""
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((n, 300))
    rhat = rng.standard_normal((n + 5, 40))
    return {"c_order": wide,
            "f_order": np.asfortranarray(wide),
            "transposed_tall": rng.standard_normal((300, n)).T,
            "strided_slice": rhat[:n, 5:],
            "vector": wide[:, 0].copy()}


class TestTriangularSolve:
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("layout", list(_right_hand_sides()))
    def test_matches_scipy(self, lower, trans, layout):
        import scipy.linalg
        r = _triangular(lower=lower)
        b = _right_hand_sides()[layout]
        before = b.copy()
        x = hostmath.solve_triangular(r, b, lower=lower, trans=trans)
        ref = scipy.linalg.solve_triangular(r, b, lower=lower, trans=trans)
        assert x.shape == b.shape
        assert x.flags.c_contiguous
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        np.testing.assert_array_equal(b, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_raises_value_error(self, bad):
        r, b = _triangular(), _right_hand_sides()["c_order"]
        b_bad = b.copy()
        b_bad[3, 7] = bad
        r_bad = r.copy()
        r_bad[0, 4] = bad
        for rr, bb in ((r, b_bad), (r_bad, b), (r, b_bad[:, 7])):
            with pytest.raises(ValueError, match="infs or NaNs"):
                hostmath.solve_triangular(rr, bb)

    @pytest.mark.parametrize("layout", ["c_order", "vector"])
    def test_zero_diagonal_raises_linalg_error(self, layout):
        r = _triangular()
        r[5, 5] = 0.0
        with pytest.raises(hostmath.LinAlgError, match="diagonal 5"):
            hostmath.solve_triangular(r, _right_hand_sides()[layout])

    @pytest.mark.parametrize("layout", list(_right_hand_sides()))
    def test_simulated_and_numpy_bit_identical(self, layout):
        r, b = _triangular(), _right_hand_sides()[layout]
        sim = make_backend("simulated").solve_triangular(r, b, trans="T")
        npy = make_backend("numpy").solve_triangular(r, b, trans="T")
        np.testing.assert_array_equal(sim, npy)

    @pytest.mark.skipif(torch_missing, reason="torch not installed")
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_torch_accepts_vector(self, trans):
        r, b = _triangular(), _right_hand_sides()["vector"]
        x = make_backend("torch").solve_triangular(r, b, trans=trans)
        ref = make_backend("numpy").solve_triangular(r, b, trans=trans)
        assert x.shape == b.shape
        np.testing.assert_allclose(x, ref, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# Parity: simulated vs numpy bit-identical, torch to fp tolerance
# ---------------------------------------------------------------------------
def _factors(backend: str, name: str, m=300, n=120, k=20):
    a = get_matrix(name, m, n, seed=3, readonly=True)
    cfg = SamplingConfig(rank=k, oversampling=8, power_iterations=1,
                         seed=11, backend=backend)
    return a, random_sampling(a, cfg)


class TestParity:
    @pytest.mark.parametrize("name", list_matrices())
    def test_numpy_vs_simulated_bit_identical(self, name):
        a, f_sim = _factors("simulated", name)
        _, f_np = _factors("numpy", name)
        np.testing.assert_array_equal(f_sim.q, f_np.q)
        np.testing.assert_array_equal(f_sim.r, f_np.r)
        np.testing.assert_array_equal(f_sim.perm, f_np.perm)

    @pytest.mark.parametrize("name", list_matrices())
    def test_parity_runs_are_accurate(self, name):
        a, f = _factors("simulated", name)
        assert f.residual(a) < 0.5  # sanity: a real approximation

    @pytest.mark.skipif(torch_missing, reason="torch not installed")
    @pytest.mark.parametrize("name", list_matrices())
    def test_torch_parity_fp_tolerance(self, name):
        a, f_ref = _factors("simulated", name)
        _, f_t = _factors("torch", name)
        # Same random subspace, different arithmetic: factors agree to
        # fp tolerance (float32 on MPS devices, hence the loose atol).
        np.testing.assert_array_equal(f_ref.perm, f_t.perm)
        np.testing.assert_allclose(f_t.residual(a), f_ref.residual(a),
                                   rtol=1e-3, atol=1e-5)

    def test_cholqr_kernels_bit_identical(self):
        from repro.qr.cholqr import cholqr_rows
        rng = np.random.default_rng(5)
        b = rng.standard_normal((40, 200))
        q1, r1 = cholqr_rows(b, backend=make_backend("simulated"))
        q2, r2 = cholqr_rows(b, backend=make_backend("numpy"))
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(r1, r2)


# ---------------------------------------------------------------------------
# Config and CLI round-trips
# ---------------------------------------------------------------------------
class TestSelectionRoundTrip:
    def test_config_accepts_registry_names(self):
        for name in ("simulated", "numpy", "torch", "cupy", "auto", None):
            assert SamplingConfig(rank=4, backend=name).backend == name
        assert AdaptiveConfig(tolerance=0.1,
                              backend="numpy").backend == "numpy"

    def test_config_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="backend"):
            SamplingConfig(rank=4, backend="mkl")
        with pytest.raises(ConfigurationError, match="backend"):
            AdaptiveConfig(tolerance=0.1, backend="mkl")

    def test_config_may_name_unavailable_backend(self):
        # Constructing is legal; availability is a resolution-time check.
        missing = [n for n in BACKENDS if not BACKENDS[n].available()]
        if not missing:
            pytest.skip("every registered backend is installed here")
        assert SamplingConfig(rank=4,
                              backend=missing[0]).backend == missing[0]

    def test_executor_threads_backend(self):
        from repro.gpu.device import NumpyExecutor
        ex = NumpyExecutor(seed=0, backend="numpy")
        assert ex.backend.name == "numpy"

    def test_harness_records_backend(self):
        from repro.bench.harness import observed_fixed_rank
        _, rec = observed_fixed_rank("fig11", backend="numpy")
        assert rec.backend_name == "numpy"
        assert rec.backend_is_model is False
        assert rec.backend_wall_seconds >= 0.0

    def test_cli_backend_flag_sets_env(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["list", "--backend", "numpy"]) == 0
        import os
        assert os.environ.get("REPRO_BACKEND") == "numpy"

    def test_cli_backend_flag_rejects_unknown(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(SystemExit):
            main(["list", "--backend", "mkl"])
        assert "unknown backend" in capsys.readouterr().err

    def test_obs_cli_backend_round_trip(self, monkeypatch, tmp_path,
                                        capsys):
        from repro.obs.cli import main as obs_main
        import json
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        out = tmp_path / "BENCH_x.json"
        rc = obs_main(["run", "fig11", "--backend", "numpy",
                       "--bench", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 2
        assert doc["backend"] == "numpy"
        assert doc["wall_clock_s"] >= 0.0
        assert "backend=numpy" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Artifact schema v2 + cross-version diff
# ---------------------------------------------------------------------------
class TestSchemaV2:
    def _v2(self):
        from repro.obs.artifact import build_artifact
        return build_artifact([], label="t", backend="numpy",
                              wall_clock_s=0.25)

    def test_build_artifact_v2_fields(self):
        from repro.obs.artifact import SCHEMA_VERSION, validate_artifact
        doc = self._v2()
        assert doc["schema_version"] == SCHEMA_VERSION == 2
        assert doc["backend"] == "numpy"
        assert doc["wall_clock_s"] == 0.25
        validate_artifact(doc)

    def test_default_backend_recorded(self, monkeypatch):
        from repro.obs.artifact import build_artifact
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert build_artifact([], label="t")["backend"] == "simulated"

    def test_validate_accepts_v1(self):
        from repro.obs.artifact import validate_artifact
        doc = self._v2()
        doc["schema_version"] = 1
        del doc["backend"], doc["wall_clock_s"]
        validate_artifact(doc)

    def test_validate_v2_requires_backend_fields(self):
        from repro.obs.artifact import validate_artifact
        doc = self._v2()
        del doc["backend"]
        with pytest.raises(ConfigurationError, match="backend"):
            validate_artifact(doc)

    def test_diff_across_schema_versions(self):
        from repro.obs.diff import diff_artifacts, render_diff
        new = self._v2()
        old = dict(new)
        old["schema_version"] = 1
        old = {k: v for k, v in old.items()
               if k not in ("backend", "wall_clock_s")}
        res = diff_artifacts(old, new)
        assert any("schema" in n for n in res.notes)
        text = render_diff(res)
        assert "obs diff note" in text

    def test_diff_notes_backend_skew(self):
        from repro.obs.diff import diff_artifacts
        a, b = self._v2(), self._v2()
        b["backend"] = "simulated"
        notes = diff_artifacts(a, b).notes
        assert any("backends differ" in n for n in notes)

    def test_diff_same_version_no_notes(self):
        from repro.obs.diff import diff_artifacts
        assert diff_artifacts(self._v2(), self._v2()).notes == []


# ---------------------------------------------------------------------------
# RS114: backend-boundary lint
# ---------------------------------------------------------------------------
class TestRS114:
    def _run(self, tmp_path, rel, source):
        from repro.analysis.engine import analyze_paths
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
        return [f.rule for f in analyze_paths([p], select=["RS114"],
                                              root=tmp_path)]

    def test_flags_linalg_call_outside_backends(self, tmp_path):
        assert self._run(tmp_path, "repro/core/x.py",
                         "import numpy as np\n"
                         "y = np.linalg.svd(a)\n") == ["RS114"]

    def test_flags_linalg_import(self, tmp_path):
        assert self._run(tmp_path, "repro/qr/x.py",
                         "from scipy.linalg import cholesky\n") == ["RS114"]

    def test_exempts_backends_package(self, tmp_path):
        assert self._run(tmp_path, "repro/backends/x.py",
                         "import numpy as np\n"
                         "y = np.linalg.svd(a)\n") == []

    def test_ignores_non_repro_paths(self, tmp_path):
        assert self._run(tmp_path, "scripts/x.py",
                         "import numpy as np\n"
                         "y = np.linalg.svd(a)\n") == []

    def test_plain_matmul_is_legal(self, tmp_path):
        assert self._run(tmp_path, "repro/qr/x.py", "c = a @ b\n") == []

    def test_core_tree_is_clean(self):
        from pathlib import Path
        from repro.analysis.engine import analyze_paths
        root = Path(__file__).resolve().parent.parent
        src = root / "src" / "repro"
        found = analyze_paths([src], select=["RS114"], root=root)
        assert found == []
