"""Tests for the named test-matrix registry (repro.matrices.registry)."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.matrices.registry import (TABLE1_SPECS, clear_matrix_cache,
                                     get_matrix, list_matrices,
                                     matrix_cache_info, table1_row)


class TestRegistry:
    def test_lists_all_three(self):
        assert set(list_matrices()) == {"power", "exponent", "hapmap"}

    def test_specs_carry_paper_shapes(self):
        assert TABLE1_SPECS["power"].paper_shape == (500_000, 500)
        assert TABLE1_SPECS["hapmap"].paper_shape == (503_783, 506)

    def test_get_matrix_scaled(self):
        a = get_matrix("power", m=100, n=40, seed=0)
        assert a.shape == (100, 40)

    def test_get_matrix_default_n(self):
        a = get_matrix("exponent", m=200, seed=0)
        assert a.shape == (200, 500)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_matrix("nope", m=10, n=10)

    def test_seeded_reproducible(self):
        np.testing.assert_array_equal(get_matrix("hapmap", m=50, n=20,
                                                 seed=1),
                                      get_matrix("hapmap", m=50, n=20,
                                                 seed=1))


class TestMatrixCache:
    def setup_method(self):
        clear_matrix_cache()

    def teardown_method(self):
        clear_matrix_cache()

    def test_repeat_request_hits_cache(self):
        a = get_matrix("power", m=80, n=30, seed=3, readonly=True)
        info = matrix_cache_info()
        assert info == {"hits": 0, "misses": 1, "entries": 1}
        b = get_matrix("power", m=80, n=30, seed=3, readonly=True)
        assert matrix_cache_info()["hits"] == 1
        assert np.shares_memory(a, b)

    def test_cache_key_includes_all_params(self):
        get_matrix("power", m=80, n=30, seed=3, readonly=True)
        get_matrix("power", m=80, n=30, seed=4, readonly=True)  # seed
        get_matrix("power", m=81, n=30, seed=3, readonly=True)  # m
        get_matrix("exponent", m=80, n=30, seed=3, readonly=True)  # name
        assert matrix_cache_info()["misses"] == 4
        assert matrix_cache_info()["hits"] == 0

    def test_cached_copy_is_isolated(self):
        # Default calls admit nothing, so both calls here generate: this
        # checks that two owned arrays are isolated.  The private copy
        # of a key the LRU holds is checked in
        # tests/test_serve.py::TestSharedMatrix.
        a = get_matrix("exponent", m=60, n=20, seed=0)
        a[0, 0] = 123.0
        b = get_matrix("exponent", m=60, n=20, seed=0)
        assert b[0, 0] != 123.0

    def test_generator_seed_bypasses_cache(self):
        get_matrix("power", m=40, n=20,
                   seed=np.random.default_rng(0))
        assert matrix_cache_info() == {"hits": 0, "misses": 0,
                                       "entries": 0}

    def test_cache_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "0")
        get_matrix("power", m=40, n=20, seed=0, readonly=True)
        assert matrix_cache_info()["entries"] == 0

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "lots")
        with pytest.raises(ConfigurationError):
            get_matrix("power", m=40, n=20, seed=0)

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATRIX_CACHE", "2")
        get_matrix("power", m=40, n=20, seed=0, readonly=True)
        get_matrix("power", m=40, n=20, seed=1, readonly=True)
        get_matrix("power", m=40, n=20, seed=2, readonly=True)  # evicts 0
        assert matrix_cache_info()["entries"] == 2
        get_matrix("power", m=40, n=20, seed=0, readonly=True)  # miss again
        assert matrix_cache_info()["misses"] == 4


class TestOwnership:
    """A default call owns its array and the LRU keeps nothing for it;
    ``readonly=True`` callers share the LRU's one frozen entry."""

    def setup_method(self):
        clear_matrix_cache()

    def teardown_method(self):
        clear_matrix_cache()

    def test_default_miss_admits_nothing(self):
        a = get_matrix("power", m=80, n=30, seed=3)
        assert matrix_cache_info() == {"hits": 0, "misses": 1,
                                       "entries": 0}
        assert a.flags.writeable
        shared = get_matrix("power", m=80, n=30, seed=3, readonly=True)
        np.testing.assert_array_equal(a, shared)
        assert not np.shares_memory(a, shared)

    def test_default_miss_holds_one_buffer(self):
        get_matrix("power", m=40, n=30, seed=0)  # warm imports and LAPACK
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            a = get_matrix("power", m=2000, n=200, seed=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # A frozen LRU entry behind a private copy would hold 2x.
        assert held <= 1.2 * a.nbytes


class TestTable1Row:
    def test_exponent_stats(self):
        a = get_matrix("exponent", m=300, n=200, seed=0)
        row = table1_row(a, k=50)
        assert row["sigma_0"] == pytest.approx(1.0, rel=1e-6)
        assert row["sigma_k1"] == pytest.approx(10 ** -5.1, rel=1e-3)
        assert row["kappa"] == pytest.approx(10 ** 5.1, rel=1e-3)

    def test_k_too_large_raises(self):
        a = get_matrix("power", m=60, n=30, seed=0)
        with pytest.raises(ConfigurationError):
            table1_row(a, k=30)

    def test_zero_tail_gives_inf_kappa(self, rng):
        a = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 30))
        row = table1_row(a, k=10)
        assert row["kappa"] > 1e12  # numerically zero tail
