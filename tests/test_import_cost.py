"""Cold start: importing the package loads no SciPy subpackage beyond
what ``scipy.linalg`` itself loads.

``scipy.cluster`` and ``scipy.optimize`` (and the sparse, spatial,
special, fft and constants packages they pull in) serve only the
clustering helpers, which import them on first call.  Every process
that imports ``repro`` - each benchmark child, CLI run and service -
would otherwise pay about 0.25 s and 20 MiB for them.  Each probe runs
in a fresh interpreter, since the test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

# What the benchmark child imports, besides ``repro`` itself.
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


def _scipy_packages_added_by(code: str) -> list:
    """The ``scipy.X`` packages that running ``code`` adds after
    ``import scipy.linalg``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
