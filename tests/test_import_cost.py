"""Cold start: importing the package loads no SciPy, and a modeled-clock
run loads none either.

``scipy.linalg`` serves only the four SciPy-backed helpers of
``repro.backends.hostmath``, and ``scipy.cluster`` and
``scipy.optimize`` (and the sparse, spatial, special, fft and
constants packages they pull in) only the clustering helpers; each
helper imports its packages on first call.  The figure drivers behind
Figures 7-15 run on shape-only arrays and call none of them, so a
figure run or the symbolic sweep would otherwise pay about 0.2 s and
21 MiB for ``scipy.linalg``, and every process that imports ``repro``
- each benchmark child, CLI run and service - 0.25 s and 20 MiB for
the clustering packages.  Each probe runs in a fresh interpreter,
since the test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

# What the benchmark child imports, besides ``repro`` itself.  None of
# them may load a SciPy package at import time.
ENTRY_MODULES = ("repro", "repro.bench.harness", "repro.serve.service",
                 "repro.matrices.registry")

_PROBE = """
import json, sys
import scipy.linalg
before = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.startswith("scipy.") and m.count(".") == 1)))
"""

# Runs each argument in turn and reports the SciPy modules loaded
# after each one.
_STAGES_PROBE = """
import json, sys
stages = []
for code in sys.argv[1:]:
    exec(code)
    stages.append(sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy"))
print(json.dumps(stages))
"""


def _run_probe(probe: str, *code: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe, *code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _scipy_packages_added_by(code: str) -> list:
    """The ``scipy.X`` packages that running ``code`` adds after
    ``import scipy.linalg``, in a fresh interpreter."""
    return _run_probe(_PROBE, code)


def test_import_adds_no_scipy_subpackage():
    code = "\n".join(f"import {name}" for name in ENTRY_MODULES)
    assert _scipy_packages_added_by(code) == []


def test_clustering_helpers_import_their_packages_on_first_call():
    # The positive control: the probe sees a package arrive, and the
    # helpers still find theirs.
    code = ("import numpy as np\n"
            "from repro.core.clustering import clustering_accuracy\n"
            "assert clustering_accuracy(np.array([0, 1]),"
            " np.array([1, 0])) == 1.0\n")
    added = _scipy_packages_added_by(code)
    assert "scipy.optimize" in added
    assert "scipy.cluster" not in added


def test_modeled_clock_runs_load_no_scipy():
    # One Figure 11 point and one three-GPU Figure 15 point on the
    # modeled clock, then a real-data run as the positive control: its
    # CholQR and QRCP kernels reach the SciPy-backed helpers.
    modeled = "\n".join(
        [f"import {name}" for name in ENTRY_MODULES + ("repro.cli",)]
        + ["from repro.bench.harness import timed_fixed_rank",
           "timed_fixed_rank(50_000, 2_500)",
           "timed_fixed_rank(150_000, 2_500, ng=3)"])
    real = ("import numpy as np\n"
            "from repro import SamplingConfig, random_sampling\n"
            "a = np.random.default_rng(0).standard_normal((200, 40))\n"
            "random_sampling(a, SamplingConfig(rank=5, seed=1,"
            " backend='numpy'))\n")
    after_modeled, after_real = _run_probe(_STAGES_PROBE, modeled, real)
    assert after_modeled == []
    assert "scipy.linalg" in after_real
