"""Tests for input validation: the ``check_finite`` guards and device
memory accounting on bind."""

import importlib

import numpy as np
import pytest

from repro import (AdaptiveConfig, GPUExecutor, NumpyExecutor,
                   SamplingConfig, SymArray, adaptive_sampling,
                   cur_decomposition, random_sampling, randomized_svd)
from repro.errors import (CholeskyBreakdownError, NonFiniteResultError,
                          OutOfDeviceMemoryError, ReproError, ShapeError)
from repro.qr.utils import ensure_all_finite


@pytest.fixture
def nan_matrix(rng):
    a = rng.standard_normal((60, 20))
    a[5, 3] = np.nan
    return a


@pytest.fixture
def inf_matrix(rng):
    a = rng.standard_normal((60, 20))
    a[0, 0] = np.inf
    return a


class TestEnsureAllFinite:
    def test_clean_passes(self, rng):
        ensure_all_finite(rng.standard_normal((5, 5)))

    def test_nan_raises(self, nan_matrix):
        with pytest.raises(ShapeError):
            ensure_all_finite(nan_matrix)

    def test_inf_raises(self, inf_matrix):
        with pytest.raises(ShapeError):
            ensure_all_finite(inf_matrix)

    def test_symbolic_skipped(self):
        ensure_all_finite(SymArray((10, 10)))  # no data, no check

    def test_name_in_message(self, nan_matrix):
        with pytest.raises(ShapeError, match="input_matrix"):
            ensure_all_finite(nan_matrix, "input_matrix")


class TestEntryPointGuards:
    def test_random_sampling_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            random_sampling(nan_matrix, SamplingConfig(rank=5, seed=0))

    def test_random_sampling_opt_out(self, nan_matrix):
        # With the check disabled the guard's ShapeError must NOT fire;
        # behaviour is then undefined: NaNs either propagate into the
        # factors or trip a downstream numerical kernel.
        try:
            f = random_sampling(nan_matrix,
                                SamplingConfig(rank=5, seed=0),
                                check_finite=False)
        except ShapeError:
            pytest.fail("finite-check fired despite check_finite=False")
        except Exception:
            return  # downstream kernel objected — acceptable
        assert np.isnan(np.asarray(f.r)).any() or \
            np.isnan(np.asarray(f.q)).any()

    def test_adaptive_rejects_inf(self, inf_matrix):
        with pytest.raises(ShapeError):
            adaptive_sampling(inf_matrix, AdaptiveConfig(tolerance=1e-6,
                                                         seed=0))

    def test_svd_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            randomized_svd(nan_matrix, SamplingConfig(rank=5, seed=0))

    def test_cur_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            cur_decomposition(nan_matrix, SamplingConfig(rank=5, seed=0))


def _entry_points():
    """The four public entry points, at k = 20, l = 30, q = 1."""
    cfg = SamplingConfig(rank=20, oversampling=10, power_iterations=1,
                         seed=1)
    return {
        "fixed_rank": lambda a: random_sampling(a, cfg),
        "rsvd": lambda a: randomized_svd(a, cfg),
        "cur": lambda a: cur_decomposition(a, cfg),
        "adaptive": lambda a: adaptive_sampling(a, AdaptiveConfig(
            tolerance=1e-8, power_iterations=1, seed=1)),
    }


@pytest.fixture(scope="module")
def rank20():
    rng = np.random.default_rng(0)
    return rng.standard_normal((600, 20)) @ rng.standard_normal((20, 120))


class TestExtremeScales:
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowed_gram_raises_typed_error(self, rank20, entry):
        # Finite entries near 1e200 pass the entry scan, but their Gram
        # matrix overflows float64.
        with pytest.raises(NonFiniteResultError) as ei:
            _entry_points()[entry](rank20 * 1e200)
        assert isinstance(ei.value, ReproError)
        assert isinstance(ei.value, ArithmeticError)
        assert ei.value.factor == "gram"

    @pytest.mark.parametrize("entry, expected", [
        ("fixed_rank", CholeskyBreakdownError),
        ("rsvd", CholeskyBreakdownError),
        ("cur", NonFiniteResultError),
        ("adaptive", None),
    ])
    def test_near_underflow_keeps_its_outcomes(self, rank20, entry,
                                               expected):
        run = _entry_points()[entry]
        if expected is None:
            assert run(rank20 * 1e-310).converged
            return
        with pytest.raises(expected) as ei:
            run(rank20 * 1e-310)
        assert getattr(ei.value, "factor", None) != "gram"


#: Every module that runs the entrywise scan, or ran it before the
#: Step-1 product took its place on the Gaussian path.
_SCANNING_MODULES = ("repro.core.sampling", "repro.core.random_sampling",
                     "repro.core.adaptive", "repro.core.svd",
                     "repro.core.cur")

_NON_FINITE_MESSAGE = "^a contains NaN or infinite entries$"


@pytest.fixture
def scans(monkeypatch):
    """The arrays handed to ``ensure_all_finite``, from any module."""
    seen = []

    def counting(a, name="a"):
        seen.append(a)
        ensure_all_finite(a, name)
    for name in _SCANNING_MODULES:
        monkeypatch.setattr(importlib.import_module(name),
                            "ensure_all_finite", counting, raising=False)
    return seen


@pytest.fixture(scope="module")
def unpivoted(rank20):
    """A column of ``rank20`` that neither the fixed-rank run nor CUR
    picks as a pivot."""
    cfg = SamplingConfig(rank=20, oversampling=10, power_iterations=1,
                         seed=1)
    picked = set(random_sampling(rank20, cfg).perm[:20])
    picked |= set(cur_decomposition(rank20, cfg).cols)
    return min(set(range(rank20.shape[1])) - picked)


class TestStepOneWitness:
    """On the Gaussian path ``B = Omega A`` stands in for the entrywise
    scan: a NaN or infinity in column j of A makes all of column j of B
    non-finite, so A is scanned only when B is not finite."""

    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    def test_finite_input_is_not_scanned(self, rank20, scans, entry):
        _entry_points()[entry](rank20)
        assert scans == []

    @pytest.mark.parametrize("where", ["unpivoted column", "last row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_entry_raises_shape_error(self, rank20, unpivoted,
                                                 scans, entry, bad, where):
        a = rank20.copy()
        m, n = a.shape
        a[(m // 2, unpivoted) if where == "unpivoted column"
          else (m - 1, n - 1)] = bad
        with pytest.raises(ShapeError, match=_NON_FINITE_MESSAGE):
            _entry_points()[entry](a)
        assert len(scans) == 1

    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowed_product_is_not_a_shape_error(self, rank20, unpivoted,
                                                     scans, entry):
        a = rank20.copy()
        a[:, unpivoted] = 1e307
        with pytest.raises(NonFiniteResultError) as ei:
            _entry_points()[entry](a)
        assert ei.value.factor == "gram"
        # B overflowed, so A was scanned once, and passed.
        assert len(scans) == 1

    def test_error_is_raised_after_step_one(self, rank20):
        a = rank20.copy()
        a[-1, -1] = np.nan
        ex = GPUExecutor(seed=1)
        with pytest.raises(ShapeError, match=_NON_FINITE_MESSAGE):
            random_sampling(a, SamplingConfig(rank=20, seed=1), executor=ex)
        assert set(ex.timeline.stats()) == {"prng", "sampling"}

    @pytest.mark.parametrize("run", [random_sampling, randomized_svd,
                                     cur_decomposition])
    def test_fft_sampler_scans_up_front(self, rank20, scans, run):
        cfg = SamplingConfig(rank=20, oversampling=10, sampler="fft",
                             seed=1)
        run(rank20, cfg)
        assert len(scans) == 1
        a = rank20.copy()
        a[-1, -1] = np.nan
        ex = GPUExecutor(seed=1)
        with pytest.raises(ShapeError, match=_NON_FINITE_MESSAGE):
            run(a, cfg, executor=ex)
        assert ex.seconds == 0.0

    def test_presampled_b_scans_up_front(self, rank20, scans):
        cfg = SamplingConfig(rank=20, oversampling=10, seed=1)
        ex = NumpyExecutor(seed=1)
        b = ex.sample_gemm(ex.prng_gaussian(30, 600), rank20)
        random_sampling(rank20, cfg, presampled=b)
        assert len(scans) == 1
        a = rank20.copy()
        a[-1, -1] = np.nan
        ex = GPUExecutor(seed=1)
        with pytest.raises(ShapeError, match=_NON_FINITE_MESSAGE):
            random_sampling(a, cfg, executor=ex, presampled=b)
        assert ex.seconds == 0.0


class TestDeviceMemoryOnBind:
    def test_fits_k40c(self):
        ex = GPUExecutor(seed=0)
        ex.bind(SymArray((500_000, 500)))  # the paper's 2 GB matrix
        assert ex.device.memory.used == 8 * 500_000 * 500

    def test_oversized_matrix_raises(self):
        ex = GPUExecutor(seed=0)
        with pytest.raises(OutOfDeviceMemoryError):
            ex.bind(SymArray((2_000_000, 1_000)))  # 16 GB > 12 GB

    def test_rebind_resets(self):
        ex = GPUExecutor(seed=0)
        ex.bind(SymArray((100_000, 2_500)))
        ex.bind(SymArray((100_000, 2_500)))  # no double accounting
        assert ex.device.memory.used == 8 * 100_000 * 2_500

    def test_run_through_public_api(self):
        with pytest.raises(OutOfDeviceMemoryError):
            random_sampling(SymArray((2_000_000, 1_000)),
                            SamplingConfig(rank=10, seed=0),
                            executor=GPUExecutor(seed=0))
