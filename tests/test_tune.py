"""Schedule-depth invariants of the multi-GPU executor.

``MultiGPUExecutor.pipeline_chunks`` and ``cholqr_buffers`` were once
tuned per shape; they are class constants now (``docs/performance.md``,
"Schedule depths").  Any depth only reshapes the modeled event DAG: the
host math and every phase sum are those of the default schedule.  The
depths are set as instance attributes on a fresh executor, as the
schedule-depth sweep in that section does.
"""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.gpu.device import SymArray
from repro.gpu.multigpu import MultiGPUExecutor


def _executor(ng, chunks=None, buffers=None, seed=0):
    ex = MultiGPUExecutor(ng=ng, seed=seed)
    if chunks is not None:
        ex.pipeline_chunks, ex.cholqr_buffers = chunks, buffers
    return ex


class TestSearchInvariants:
    def test_phase_sums_invariant_across_knobs(self):
        """Figure 15's 150,000 x 2,500, k = 54 on 3 GPUs, symbolically."""
        cfg = SamplingConfig(rank=54, oversampling=10, power_iterations=1,
                             seed=0)

        def run(ex):
            res = random_sampling(SymArray((150_000, 2_500)), cfg,
                                  executor=ex)
            bd = {ph: s for ph, s in res.breakdown.items() if s > 0.0}
            return res.seconds, bd

        default_s, default_bd = run(_executor(3))
        tuned_s, tuned_bd = run(_executor(3, chunks=32, buffers=8))
        # The depths reach the schedule: the deeper one hides more.
        assert tuned_s < default_s
        assert set(default_bd) == set(tuned_bd)
        for phase in default_bd:
            assert default_bd[phase] == pytest.approx(
                tuned_bd[phase], rel=1e-12)


class TestPlanApplication:
    def test_bit_identical_host_math_tuned_vs_default(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((400, 120))
        cfg = SamplingConfig(rank=20, power_iterations=1, seed=1)
        f_def = random_sampling(a, cfg, executor=_executor(2, seed=1))
        f_tuned = random_sampling(
            a, cfg, executor=_executor(2, chunks=32, buffers=8, seed=1))
        assert np.array_equal(np.asarray(f_def.q), np.asarray(f_tuned.q))
        assert np.array_equal(np.asarray(f_def.r), np.asarray(f_tuned.r))
        assert np.array_equal(np.asarray(f_def.perm),
                              np.asarray(f_tuned.perm))
