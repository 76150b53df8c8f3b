"""Omega is drawn inline from the executor's own generator.

Nothing draws Omega ahead of the run any more.  What the draw-ahead
guaranteed still holds and is pinned here: an adaptive run takes each
Omega as the next inline draw of its executor's PCG64 stream, in order,
with nothing drawn ahead, skipped or drawn twice, on every executor.
"""

import numpy as np
import pytest

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


@pytest.mark.parametrize("exname", sorted(EXECUTORS))
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("rule", ["static", "interpolate"])
@pytest.mark.parametrize("name", GALLERY)
def test_adaptive_run_is_bit_identical_to_inline_draws(name, rule, q,
                                                       exname):
    """Each Omega the run takes is the next draw of a twin generator,
    the run leaves its stream where those draws leave the twin, and
    recording the draws changes no output."""
    a, cfg = _matrix(name), _config(name, rule, q)
    plain = _fingerprint(a, cfg, EXECUTORS[exname]())
    ex, taken = EXECUTORS[exname](), []
    prng_gaussian = ex.prng_gaussian

    def take(rows, cols, symbolic=False):
        omega = prng_gaussian(rows, cols, symbolic=symbolic)
        taken.append(np.array(omega))
        return omega

    ex.prng_gaussian = take
    assert _fingerprint(a, cfg, ex) == plain
    assert taken
    twin = np.random.default_rng(SEED)
    for omega in taken:
        assert omega.tobytes() == twin.standard_normal(omega.shape).tobytes()
    assert plain[-1] == twin.standard_normal(8).tobytes()
