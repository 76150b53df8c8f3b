"""Tests for the exception hierarchy (repro.errors)."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_base(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_shape_error_is_value_error(self):
        assert issubclass(errors.ShapeError, ValueError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_cholesky_is_arithmetic_error(self):
        assert issubclass(errors.CholeskyBreakdownError, ArithmeticError)

    def test_rank_deficient_is_arithmetic_error_with_rank(self):
        assert issubclass(errors.RankDeficientError, ArithmeticError)
        assert errors.RankDeficientError("r < k", rank=3).rank == 3

    def test_device_errors(self):
        assert issubclass(errors.OutOfDeviceMemoryError, errors.DeviceError)
        assert issubclass(errors.SymbolicExecutionError, errors.DeviceError)

    def test_convergence_error_carries_history(self):
        e = errors.ConvergenceError("nope", history=[1, 2, 3])
        assert e.history == [1, 2, 3]
        e2 = errors.ConvergenceError("nope")
        assert e2.history == []

    def test_oom_message_contents(self):
        e = errors.OutOfDeviceMemoryError(100, 40, 200)
        assert "100" in str(e) and "40" in str(e) and "200" in str(e)

    def test_single_except_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.SymbolicExecutionError("x")
