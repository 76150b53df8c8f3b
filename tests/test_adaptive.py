"""Tests for the adaptive-l fixed-accuracy scheme (repro.core.adaptive)."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import AdaptiveConfig
from repro.core.adaptive import (AdaptiveResult, AdaptiveStep,
                                 _next_increment, adaptive_sampling)
from repro.errors import ConvergenceError
from repro.gpu.device import GPUExecutor, NumpyExecutor
from repro.matrices.registry import get_matrix
from repro.matrices.synthetic import exponent_matrix

from tests.helpers import assert_orthonormal_rows


@pytest.fixture(scope="module")
def a_exp() -> np.ndarray:
    return exponent_matrix(1_500, 300, seed=0)


class TestConvergence:
    def test_converges_and_meets_tolerance(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-8, l_init=8, l_inc=8, seed=1)
        res = adaptive_sampling(a_exp, cfg)
        assert res.converged
        assert res.steps[-1].error_estimate <= 1e-8
        # The probabilistic estimate upper-bounds the actual error.
        assert res.actual_error(a_exp) <= res.steps[-1].error_estimate * 10

    def test_basis_orthonormal(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-6, seed=2)
        res = adaptive_sampling(a_exp, cfg)
        assert_orthonormal_rows(np.asarray(res.basis), tol=1e-10)

    def test_estimates_decrease_overall(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-10, l_init=16, l_inc=16, seed=3)
        res = adaptive_sampling(a_exp, cfg)
        ests = [s.error_estimate for s in res.steps]
        assert ests[-1] < ests[0] * 1e-6

    def test_subspace_sizes_increase_by_inc(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-8, l_init=8, l_inc=8, seed=4)
        res = adaptive_sampling(a_exp, cfg)
        sizes = [s.subspace_size for s in res.steps]
        assert sizes[0] == 8
        assert all(b - a == 8 for a, b in zip(sizes, sizes[1:]))

    def test_tighter_tolerance_needs_bigger_subspace(self, a_exp):
        r1 = adaptive_sampling(a_exp, AdaptiveConfig(tolerance=1e-4,
                                                     seed=5))
        r2 = adaptive_sampling(a_exp, AdaptiveConfig(tolerance=1e-8,
                                                     seed=5))
        assert r2.subspace_size > r1.subspace_size

    def test_power_iterations_supported(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-6, power_iterations=1, seed=6)
        res = adaptive_sampling(a_exp, cfg)
        assert res.converged
        assert_orthonormal_rows(np.asarray(res.basis), tol=1e-9)

    def test_estimate_is_pessimistic(self, a_exp):
        """Figure 16: the estimate sits above the actual error."""
        cfg = AdaptiveConfig(tolerance=1e-9, l_init=16, l_inc=16, seed=7)
        res = adaptive_sampling(a_exp, cfg)
        basis = np.asarray(res.basis)
        for st in res.steps[:-1]:
            prefix = basis[: st.subspace_size, :]
            actual = np.linalg.norm(a_exp - (a_exp @ prefix.T) @ prefix, 2)
            assert st.error_estimate > 0.3 * actual


class TestCapAndExhaustion:
    def test_cap_raises_with_history(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-13, l_init=8, l_inc=8,
                             max_subspace=32, seed=8)
        with pytest.raises(ConvergenceError) as exc:
            adaptive_sampling(a_exp, cfg)
        assert len(exc.value.history) >= 1

    def test_numerical_rank_exhaustion_converges_or_raises(self):
        """Past the numerical rank the DGKS guard drops annihilated
        rows; the run either converges (estimate below tol) or raises a
        ConvergenceError — it must never return garbage."""
        a = exponent_matrix(800, 150, seed=9)  # numerical rank ~ 150
        cfg = AdaptiveConfig(tolerance=1e-14, l_init=64, l_inc=64, seed=9)
        try:
            res = adaptive_sampling(a, cfg)
            assert res.converged
            assert_orthonormal_rows(np.asarray(res.basis), tol=1e-9)
        except ConvergenceError as e:
            assert e.history


class TestStepRules:
    def test_static_keeps_increment(self):
        cfg = AdaptiveConfig(tolerance=1e-8, l_inc=16, step_rule="static")
        hist = [AdaptiveStep(16, 16, 1e-2, 0.0),
                AdaptiveStep(32, 16, 1e-4, 0.0)]
        assert _next_increment(cfg, hist, 16) == 16

    def test_interpolate_targets_tolerance(self):
        cfg = AdaptiveConfig(tolerance=1e-8, l_inc=16,
                             step_rule="interpolate")
        # One decade per 16 vectors; 1e-4 -> 1e-8 needs ~64 more.
        hist = [AdaptiveStep(16, 16, 1e-3, 0.0),
                AdaptiveStep(32, 16, 1e-4, 0.0)]
        inc = _next_increment(cfg, hist, 16)
        assert 48 <= inc <= 64

    def test_interpolate_growth_clamped(self):
        cfg = AdaptiveConfig(tolerance=1e-30, l_inc=8,
                             step_rule="interpolate")
        hist = [AdaptiveStep(8, 8, 1e-2, 0.0),
                AdaptiveStep(16, 8, 9.9e-3, 0.0)]  # very shallow slope
        assert _next_increment(cfg, hist, 8) <= 32  # 4x cap

    def test_interpolate_handles_non_decreasing(self):
        cfg = AdaptiveConfig(tolerance=1e-8, step_rule="interpolate")
        hist = [AdaptiveStep(8, 8, 1e-3, 0.0),
                AdaptiveStep(16, 8, 2e-3, 0.0)]
        assert _next_increment(cfg, hist, 8) == 8

    def test_interpolate_needs_two_points(self):
        cfg = AdaptiveConfig(tolerance=1e-8, step_rule="interpolate")
        assert _next_increment(cfg, [], 8) == 8

    def test_interpolate_converges_end_to_end(self, a_exp):
        cfg = AdaptiveConfig(tolerance=1e-8, l_init=8, l_inc=8,
                             step_rule="interpolate", seed=10)
        res = adaptive_sampling(a_exp, cfg)
        assert res.converged
        # Adaptation should use fewer steps than the static rule.
        static = adaptive_sampling(a_exp, AdaptiveConfig(
            tolerance=1e-8, l_init=8, l_inc=8, seed=10))
        assert len(res.steps) < len(static.steps)


class TestTimedRuns:
    def test_modeled_seconds_recorded(self, a_exp):
        ex = GPUExecutor(seed=11)
        cfg = AdaptiveConfig(tolerance=1e-6, seed=11)
        res = adaptive_sampling(a_exp, cfg, executor=ex)
        assert res.seconds > 0
        times = [s.seconds for s in res.steps]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_larger_inc_fewer_steps(self, a_exp):
        def steps(inc):
            cfg = AdaptiveConfig(tolerance=1e-8, l_init=inc, l_inc=inc,
                                 seed=12)
            return len(adaptive_sampling(a_exp, cfg).steps)
        assert steps(32) < steps(8)


def _fingerprint(a, cfg, ex):
    """Everything a run leaves behind: basis, step history, modeled
    seconds and breakdown, and the executor's stream after the run."""
    res = adaptive_sampling(a, cfg, executor=ex)
    steps = [(s.subspace_size, s.increment, s.error_estimate, s.seconds,
              s.estimator_rows) for s in res.steps]
    return (np.asarray(res.basis).tobytes(), steps, res.converged,
            ex.seconds, ex.timeline.breakdown(),
            ex.rng.standard_normal(8).tobytes())


# Adaptive and fixed-rank runs on real data, in a fresh interpreter with
# BLAS on one thread: prints the thread count before and after.
_THREAD_PROBE = """
import threading
import numpy as np
from repro import (AdaptiveConfig, SamplingConfig, adaptive_sampling,
                   random_sampling)
from repro.matrices.synthetic import exponent_matrix
a = exponent_matrix(600, 120, seed=0)
before = threading.active_count()
adaptive_sampling(a, AdaptiveConfig(tolerance=1e-8, l_init=8, l_inc=16,
                                    seed=1))
random_sampling(a, SamplingConfig(rank=20, seed=1))
print(before, threading.active_count())
"""


class TestOnTheCallersThread:
    def test_concurrent_runs_equal_their_solo_runs(self):
        """More runs than cores, switching threads often: every run
        still equals its solo result."""
        a = get_matrix("power", m=500, n=120, seed=3, readonly=True)
        cfg = AdaptiveConfig(tolerance=1e-6, l_init=8, l_inc=12, seed=11)
        seeds = range(20, 26)
        solo = {s: _fingerprint(a, cfg, NumpyExecutor(seed=s))
                for s in seeds}
        got = {}

        def run(s):
            got[s] = _fingerprint(a, cfg, NumpyExecutor(seed=s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == solo

    def test_runs_start_no_thread(self):
        # BLAS on one thread leaves a core idle: a run must still do all
        # of its work on the caller's thread.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.split())
        assert after == before


class TestEstimateRank:
    def test_upper_estimate_of_gap_rank(self):
        from repro.core.adaptive import estimate_rank
        from repro.matrices.gallery import gap_spectrum_matrix
        a = gap_spectrum_matrix(800, 200, rank=25, gap=1e8, seed=0)
        r = estimate_rank(a, 1e-4)
        assert 25 <= r <= 80  # never understates; modest overshoot

    def test_tighter_tolerance_larger_rank(self, a_exp):
        from repro.core.adaptive import estimate_rank
        assert estimate_rank(a_exp, 1e-8) > estimate_rank(a_exp, 1e-3)

    def test_bad_tolerance_raises(self, a_exp):
        from repro.core.adaptive import estimate_rank
        with pytest.raises(ConvergenceError):
            estimate_rank(a_exp, 0.0)


class TestResultObject:
    def test_subspace_size_property(self, a_exp):
        res = adaptive_sampling(a_exp, AdaptiveConfig(tolerance=1e-5,
                                                      seed=13))
        assert res.subspace_size == np.asarray(res.basis).shape[0]
        assert res.subspace_size == res.steps[-1].subspace_size

    def test_certified_bound_dominates_actual(self, a_exp):
        res = adaptive_sampling(a_exp, AdaptiveConfig(tolerance=1e-7,
                                                      l_inc=16, seed=15))
        bound = res.certified_bound(gamma=1e-6)
        assert bound >= res.actual_error(a_exp)
        # The bound stays within the quality factor of the raw estimate.
        assert bound < 30 * res.steps[-1].error_estimate

    def test_certified_bound_needs_steps(self):
        from repro.core.adaptive import AdaptiveResult
        import numpy as np
        empty = AdaptiveResult(basis=np.zeros((0, 3)), shape=(5, 3))
        with pytest.raises(ConvergenceError):
            empty.certified_bound()

    def test_relative_actual_error(self, a_exp):
        res = adaptive_sampling(a_exp, AdaptiveConfig(tolerance=1e-5,
                                                      seed=14))
        rel = res.actual_error(a_exp, relative=True)
        absolute = res.actual_error(a_exp, relative=False)
        assert rel == pytest.approx(
            absolute / np.linalg.norm(a_exp, 2))
