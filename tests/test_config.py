"""Tests for configuration dataclasses (repro.config)."""

from dataclasses import replace

import pytest

from repro.config import (ORTH_SCHEMES, SAMPLER_KINDS, AdaptiveConfig,
                          QRCPConfig, SamplingConfig)
from repro.errors import ConfigurationError


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig(rank=50)
        assert cfg.oversampling == 10
        assert cfg.power_iterations == 0
        assert cfg.sampler == "gaussian"
        assert cfg.orth == "cholqr2"
        assert cfg.sample_size == 60

    def test_sample_size(self):
        assert SamplingConfig(rank=54, oversampling=10).sample_size == 64

    def test_with_rank(self):
        cfg = SamplingConfig(rank=10, oversampling=4, seed=3)
        cfg2 = cfg.with_rank(20)
        assert cfg2.rank == 20
        assert cfg2.oversampling == 4
        assert cfg2.seed == 3
        assert cfg.rank == 10  # frozen original untouched

    @pytest.mark.parametrize("kwargs", [
        {"rank": 0}, {"rank": -3},
        {"rank": 5, "oversampling": -1},
        {"rank": 5, "power_iterations": -1},
        {"rank": 5, "sampler": "bogus"},
        {"rank": 5, "orth": "bogus"},
    ])
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingConfig(**kwargs)

    def test_validate_for_shapes(self):
        cfg = SamplingConfig(rank=50, oversampling=10)
        cfg.validate_for(1000, 100)
        with pytest.raises(ConfigurationError):
            cfg.validate_for(1000, 40)   # rank > n
        with pytest.raises(ConfigurationError):
            cfg.validate_for(55, 100)    # l > m
        # l = 130 > n = 120: fine while the l x n sample's rows are
        # never orthonormalized (fixed rank, q = 0), infeasible once
        # they are (q >= 1, or rSVD/CUR passing within_n=True).
        wide = SamplingConfig(rank=120, oversampling=10)
        wide.validate_for(600, 120)
        with pytest.raises(ConfigurationError,
                           match="l = 130 exceeds n = 120"):
            wide.validate_for(600, 120, within_n=True)
        with pytest.raises(ConfigurationError,
                           match="l = 130 exceeds n = 120"):
            replace(wide, power_iterations=1).validate_for(600, 120)

    def test_all_orth_schemes_accepted(self):
        for scheme in ORTH_SCHEMES:
            SamplingConfig(rank=5, orth=scheme)

    def test_all_samplers_accepted(self):
        for kind in SAMPLER_KINDS:
            SamplingConfig(rank=5, sampler=kind)

    def test_frozen(self):
        cfg = SamplingConfig(rank=5)
        with pytest.raises(Exception):
            cfg.rank = 6


class TestAdaptiveConfig:
    def test_defaults(self):
        cfg = AdaptiveConfig(tolerance=1e-10)
        assert cfg.l_init == 8
        assert cfg.l_inc == 8
        assert cfg.step_rule == "static"

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": -1e-3},
        {"tolerance": 1e-8, "l_init": 0},
        {"tolerance": 1e-8, "l_inc": 0},
        {"tolerance": 1e-8, "step_rule": "magic"},
        {"tolerance": 1e-8, "power_iterations": -1},
        {"tolerance": 1e-8, "orth": "bogus"},
        {"tolerance": 1e-8, "l_init": 16, "max_subspace": 8},
    ])
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(**kwargs)


class TestQRCPConfig:
    def test_defaults(self):
        cfg = QRCPConfig()
        assert cfg.block_size == 32
        assert cfg.truncate is None

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0},
        {"truncate": 0},
        {"norm_recompute_tol": 0.0},
        {"norm_recompute_tol": 1.5},
    ])
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            QRCPConfig(**kwargs)
