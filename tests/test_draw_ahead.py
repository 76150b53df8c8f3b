"""Tests for the Omega draw-ahead (``NumpyExecutor.draw_ahead``).

The helper thread may change *when* an Omega is drawn, never its bits:
an adaptive run with draw-ahead equals the same run drawing inline in
every output, and a drawn-ahead block the executor does not take leaves
its Gaussian stream as it was.  Tier-1 runs with BLAS unpinned, where
the spare-core check turns draw-ahead off, so these tests force it.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.gpu.device as device
from repro.config import AdaptiveConfig
from repro.core.adaptive import adaptive_sampling
from repro.gpu.device import GPUExecutor, NumpyExecutor
from repro.gpu.multigpu import MultiGPUExecutor
from repro.matrices.registry import get_matrix

SEED = 11
GALLERY = ("power", "exponent", "hapmap")
TOLERANCE = {"power": 1e-6, "exponent": 1e-8, "hapmap": 1e-1}
EXECUTORS = {
    "numpy": lambda: NumpyExecutor(seed=SEED),
    "gpu": lambda: GPUExecutor(seed=SEED),
    "multigpu2": lambda: MultiGPUExecutor(2, seed=SEED),
}


@pytest.fixture
def spare_core(monkeypatch):
    monkeypatch.setattr(device, "_spare_core", lambda: True)


def _matrix(name):
    return get_matrix(name, m=500, n=120, seed=3)


def _config(name, rule="static", q=0):
    return AdaptiveConfig(tolerance=TOLERANCE[name], l_init=8, l_inc=12,
                          step_rule=rule, power_iterations=q, seed=SEED)


def _fingerprint(a, cfg, ex):
    """Everything a run leaves behind: basis, step history, modeled
    seconds and breakdown, and the executor's stream after the run."""
    res = adaptive_sampling(a, cfg, executor=ex)
    steps = [(s.subspace_size, s.increment, s.error_estimate, s.seconds,
              s.estimator_rows) for s in res.steps]
    return (np.asarray(res.basis).tobytes(), steps, res.converged,
            ex.seconds, ex.timeline.breakdown(),
            ex.rng.standard_normal(8).tobytes())


def _settle(ex):
    """Wait for the helper to finish the held block, so the executor
    decides on its checks rather than on a cancellation."""
    ex._ahead.future.result(timeout=30)


@pytest.mark.parametrize("exname", sorted(EXECUTORS))
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("rule", ["static", "interpolate"])
@pytest.mark.parametrize("name", GALLERY)
def test_adaptive_run_is_bit_identical_to_inline_draws(
        monkeypatch, spare_core, name, rule, q, exname):
    a, cfg = _matrix(name), _config(name, rule, q)
    ahead = _fingerprint(a, cfg, EXECUTORS[exname]())
    monkeypatch.setattr(NumpyExecutor, "draw_ahead",
                        lambda self, rows, cols: None)
    assert _fingerprint(a, cfg, EXECUTORS[exname]()) == ahead


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("rule,unused", [("static", 1), ("interpolate", 0)])
@pytest.mark.parametrize("name", GALLERY)
def test_each_drawn_block_is_the_next_omega_taken(spare_core, name, rule,
                                                  unused, q):
    """Every block drawn ahead has the shape of the next Omega, except
    under ``static`` the one drawn during the converged step.  Under
    ``interpolate`` only the first block is drawn ahead."""
    ex, log = NumpyExecutor(seed=SEED), []
    draw_ahead, prng_gaussian = ex.draw_ahead, ex.prng_gaussian

    def ahead(rows, cols):
        log.append(("ahead", rows, cols))
        draw_ahead(rows, cols)

    def take(rows, cols, symbolic=False):
        log.append(("take", rows, cols))
        return prng_gaussian(rows, cols, symbolic=symbolic)

    ex.draw_ahead, ex.prng_gaussian = ahead, take
    adaptive_sampling(_matrix(name), _config(name, rule, q), executor=ex)
    wasted = [i for i, (kind, *shape) in enumerate(log)
              if kind == "ahead" and log[i + 1:i + 2] != [("take", *shape)]]
    assert len(wasted) == unused
    if rule == "interpolate":
        assert [kind for kind, *_ in log].count("ahead") == 1


def test_spare_core_check_on_and_off_give_the_same_bits(monkeypatch):
    a, cfg = _matrix("exponent"), _config("exponent")
    runs = {}
    for spare in (True, False):
        monkeypatch.setattr(device, "_spare_core", lambda: spare)
        ex = NumpyExecutor(seed=SEED)
        ex.draw_ahead(4, 10)
        assert (ex._ahead is not None) is spare
        ex._drop_ahead()
        runs[spare] = _fingerprint(a, cfg, ex)
    assert runs[True] == runs[False]


class TestSpareCoreCheck:
    @pytest.fixture
    def env(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        return monkeypatch

    def test_unpinned_blas_takes_every_core(self, env):
        assert device._blas_threads(8) == 8

    @pytest.mark.parametrize("pinned,threads", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"GOTO_NUM_THREADS": "2"}, 2),
        ({"MKL_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "3,2"}, 3),
        ({"OMP_NUM_THREADS": "auto"}, 8),
        # The library's own variable overrides OMP_NUM_THREADS.
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 4),
        ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, 4),
        ({"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4"}, 4),
        ({"GOTO_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "1"}, 1),
    ])
    def test_first_pinned_count_wins(self, env, pinned, threads):
        for var, value in pinned.items():
            env.setenv(var, value)
        assert device._blas_threads(8) == threads

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs the affinity query")
    @pytest.mark.parametrize("cores,pinned,spare", [
        (2, "1", True), (2, "2", False), (1, "1", False), (4, None, False),
    ])
    def test_spare_core_needs_a_core_blas_leaves(self, env, cores, pinned,
                                                 spare):
        env.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if pinned is not None:
            env.setenv("OPENBLAS_NUM_THREADS", pinned)
        assert device._spare_core.__wrapped__() is spare


class TestUnusedBlock:
    """A block the executor does not take never moves its stream: each
    case runs against a twin executor that never draws ahead."""

    def twins(self):
        return NumpyExecutor(seed=SEED), NumpyExecutor(seed=SEED)

    def test_matching_block_is_taken(self, spare_core):
        ex, twin = self.twins()
        ex.draw_ahead(4, 50)
        block = ex._ahead.future.result(timeout=30)
        assert ex.prng_gaussian(4, 50) is block
        assert block.tobytes() == twin.prng_gaussian(4, 50).tobytes()
        assert ex.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_wrong_shape(self, spare_core):
        ex, twin = self.twins()
        ex.draw_ahead(4, 50)
        _settle(ex)
        assert ex.prng_gaussian(5, 50).tobytes() == \
            twin.prng_gaussian(5, 50).tobytes()
        assert ex.prng_gaussian(4, 50).tobytes() == \
            twin.prng_gaussian(4, 50).tobytes()

    def test_direct_rng_use_by_fft_sample(self, spare_core):
        ex, twin = self.twins()
        a = np.random.default_rng(0).standard_normal((64, 20))
        ex.draw_ahead(4, 64)
        _settle(ex)
        assert ex.fft_sample(a, 4).tobytes() == \
            twin.fft_sample(a, 4).tobytes()
        assert ex.prng_gaussian(4, 64).tobytes() == \
            twin.prng_gaussian(4, 64).tobytes()

    def test_held_reference_advanced_the_generator(self, spare_core):
        ex, twin = self.twins()
        held = ex.rng
        ex.draw_ahead(4, 50)
        _settle(ex)
        held.standard_normal(3)
        twin.rng.standard_normal(3)
        assert ex.prng_gaussian(4, 50).tobytes() == \
            twin.prng_gaussian(4, 50).tobytes()

    def test_replaced_block(self, spare_core):
        ex, twin = self.twins()
        ex.draw_ahead(4, 50)
        ex.draw_ahead(6, 50)
        _settle(ex)
        assert ex.prng_gaussian(4, 50).tobytes() == \
            twin.prng_gaussian(4, 50).tobytes()
        assert ex.prng_gaussian(6, 50).tobytes() == \
            twin.prng_gaussian(6, 50).tobytes()

    def test_replaced_generator(self, spare_core):
        ex, twin = self.twins()
        ex.draw_ahead(4, 50)
        _settle(ex)
        ex.rng = np.random.default_rng(99)
        expected = np.random.default_rng(99).standard_normal((4, 50))
        assert ex.prng_gaussian(4, 50).tobytes() == expected.tobytes()


def test_queued_draw_is_cancelled_not_waited_for(spare_core):
    gate = threading.Event()
    blocker = device._helper_pool().submit(gate.wait, 60)
    try:
        ex = NumpyExecutor(seed=SEED)
        ex.draw_ahead(16, 400)
        queued = ex._ahead.future
        t0 = time.monotonic()
        omega = ex.prng_gaussian(16, 400)
        assert time.monotonic() - t0 < 30
        assert queued.cancelled()
        expected = np.random.default_rng(SEED).standard_normal((16, 400))
        assert omega.tobytes() == expected.tobytes()
    finally:
        gate.set()
        blocker.result(timeout=30)


def _adaptive_in_child(name):
    signal.alarm(120)  # a hung child dies rather than hang the suite
    try:
        fingerprint = _fingerprint(_matrix(name), _config(name),
                                   NumpyExecutor(seed=SEED))
        helpers = [t.name for t in threading.enumerate()
                   if t.name.startswith("repro-omega")]
        return fingerprint, helpers
    finally:
        signal.alarm(0)


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                    reason="needs the fork start method")
def test_forked_child_runs_adaptive_after_its_parent(spare_core):
    parent = _fingerprint(_matrix("exponent"), _config("exponent"),
                          NumpyExecutor(seed=SEED))
    assert device._helper is not None
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        child, helpers = pool.submit(_adaptive_in_child,
                                     "exponent").result(timeout=180)
    assert child == parent
    # The child drew ahead on a helper thread of its own.
    assert len(helpers) == 1


def test_concurrent_runs_share_the_helper(monkeypatch):
    """More runs than cores, switching threads often: every run still
    equals its solo inline result."""
    a, cfg = _matrix("power"), _config("power")
    seeds = range(20, 26)
    monkeypatch.setattr(device, "_spare_core", lambda: False)
    solo = {s: _fingerprint(a, cfg, NumpyExecutor(seed=s)) for s in seeds}
    monkeypatch.setattr(device, "_spare_core", lambda: True)
    got = {}

    def run(s):
        got[s] = _fingerprint(a, cfg, NumpyExecutor(seed=s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == solo
