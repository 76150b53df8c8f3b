"""Tests for :mod:`repro.analysis` — the static invariant checker.

Every rule gets a true-positive fixture, a clean (negative) fixture, a
suppressed variant, and the engine/baseline/CLI layers are exercised
end to end, including the self-check that the shipped ``src/repro``
tree is clean against the committed baseline.
"""

import ast
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import allow_untimed_math
from repro.analysis.baseline import (apply_baseline, load_baseline,
                                     update_baseline, write_baseline)
from repro.analysis.cli import build_parser
from repro.analysis.cli import main as analyze_main
from repro.analysis.engine import (_resolve_rules, all_rules, analyze_paths,
                                   parse_noqa)
from repro.analysis.findings import (EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                                     AnalysisFinding)
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif
from repro.errors import ConfigurationError, ReproError, StaticAnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_rule(tmp_path, source, rel="repro/core/mod.py", **kw):
    """Write ``source`` at ``rel`` under ``tmp_path`` and analyze it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return analyze_paths([path], root=tmp_path, **kw)


def rules_of(findings):
    return [f.rule for f in findings]


def write_project(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path``; return the root."""
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src, encoding="utf-8")
    return tmp_path


# ---------------------------------------------------------------------------
# RS101: untimed math in repro.core
# ---------------------------------------------------------------------------

class TestRS101:
    def test_flags_matmul_operator(self, tmp_path):
        out = run_rule(tmp_path, "def f(a, b):\n    return a @ b\n",
                       select=["RS101"])
        assert rules_of(out) == ["RS101"]
        assert "untimed matrix product" in out[0].message
        assert out[0].context == "f"

    def test_flags_linalg_and_dot_calls(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(a):\n"
               "    u = np.linalg.svd(a)\n"
               "    return np.dot(a, a.T)\n")
        out = run_rule(tmp_path, src, select=["RS101"])
        assert rules_of(out) == ["RS101", "RS101"]
        assert "np.linalg.svd" in out[0].message
        assert "np.dot" in out[1].message

    def test_allow_untimed_math_decorator_exempts(self, tmp_path):
        src = ("from repro.analysis import allow_untimed_math\n"
               "@allow_untimed_math('host-side diagnostic')\n"
               "def f(a, b):\n"
               "    return a @ b\n")
        assert run_rule(tmp_path, src, select=["RS101"]) == []

    def test_not_enforced_outside_core(self, tmp_path):
        src = "def f(a, b):\n    return a @ b\n"
        out = run_rule(tmp_path, src, rel="repro/gpu/backend.py",
                       select=["RS101"])
        assert out == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = "def f(a, b):\n    return a @ b  # repro: noqa RS101\n"
        assert run_rule(tmp_path, src, select=["RS101"]) == []


# ---------------------------------------------------------------------------
# RS102: unknown phase tags
# ---------------------------------------------------------------------------

class TestRS102:
    def test_flags_unknown_phase_keyword(self, tmp_path):
        src = "def f(ex, x):\n    return ex.gemm(x, x, phase='warmup')\n"
        out = run_rule(tmp_path, src, select=["RS102"])
        assert rules_of(out) == ["RS102"]
        assert "'warmup'" in out[0].message

    def test_flags_charge_first_argument(self, tmp_path):
        src = "def f(tl):\n    tl.charge('bogus', 1.0)\n"
        out = run_rule(tmp_path, src, select=["RS102"])
        assert rules_of(out) == ["RS102"]

    def test_flags_bad_phase_default(self, tmp_path):
        src = "def f(x, phase='qrcpp'):\n    return x\n"
        out = run_rule(tmp_path, src, select=["RS102"])
        assert rules_of(out) == ["RS102"]

    def test_legend_members_pass(self, tmp_path):
        from repro.gpu.trace import PHASES
        body = "\n".join(
            f"    ex.op(phase={p!r})" for p in PHASES)
        src = f"def f(ex):\n{body}\n"
        assert run_rule(tmp_path, src, select=["RS102"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("def f(tl):\n"
               "    tl.charge('bogus', 1.0)  # repro: noqa RS102\n")
        assert run_rule(tmp_path, src, select=["RS102"]) == []


# ---------------------------------------------------------------------------
# RS103: symbolic-unsafe value reads
# ---------------------------------------------------------------------------

class TestRS103:
    def test_flags_float_of_arraylike_param(self, tmp_path):
        src = ("from repro.gpu.device import ArrayLike\n"
               "def f(x: ArrayLike):\n"
               "    return float(x)\n")
        out = run_rule(tmp_path, src, select=["RS103"])
        assert rules_of(out) == ["RS103"]
        assert "float(x)" in out[0].message

    def test_flags_truthiness_and_comparison(self, tmp_path):
        src = ("from repro.gpu.device import ArrayLike\n"
               "def f(x: ArrayLike):\n"
               "    if x:\n"
               "        pass\n"
               "    return x > 0\n")
        out = run_rule(tmp_path, src, select=["RS103"])
        assert rules_of(out) == ["RS103", "RS103"]

    def test_is_symbolic_guard_exempts(self, tmp_path):
        src = ("from repro.gpu.device import ArrayLike, is_symbolic\n"
               "def f(x: ArrayLike):\n"
               "    if is_symbolic(x):\n"
               "        return 0.0\n"
               "    return float(x)\n")
        assert run_rule(tmp_path, src, select=["RS103"]) == []

    def test_identity_test_is_not_a_value_read(self, tmp_path):
        src = ("from repro.gpu.device import ArrayLike\n"
               "from typing import Optional\n"
               "def f(x: Optional[ArrayLike]):\n"
               "    return x is not None\n")
        assert run_rule(tmp_path, src, select=["RS103"]) == []

    def test_unannotated_params_untracked(self, tmp_path):
        src = "def f(x):\n    return float(x)\n"
        assert run_rule(tmp_path, src, select=["RS103"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("from repro.gpu.device import ArrayLike\n"
               "def f(x: ArrayLike):\n"
               "    return float(x)  # repro: noqa RS103\n")
        assert run_rule(tmp_path, src, select=["RS103"]) == []


# ---------------------------------------------------------------------------
# RS104: error taxonomy
# ---------------------------------------------------------------------------

class TestRS104:
    def test_flags_builtin_raise(self, tmp_path):
        src = "def f():\n    raise ValueError('bad shape')\n"
        out = run_rule(tmp_path, src, select=["RS104"])
        assert rules_of(out) == ["RS104"]
        assert "ShapeError" in out[0].message  # suggests a replacement

    def test_hierarchy_classes_pass(self, tmp_path):
        src = ("from repro.errors import ShapeError\n"
               "def f():\n"
               "    raise ShapeError('bad shape')\n")
        assert run_rule(tmp_path, src, select=["RS104"]) == []

    def test_bare_reraise_passes(self, tmp_path):
        src = ("def f():\n"
               "    try:\n"
               "        pass\n"
               "    except Exception:\n"
               "        raise\n")
        assert run_rule(tmp_path, src, select=["RS104"]) == []

    def test_errors_module_is_exempt(self, tmp_path):
        src = "def f():\n    raise ValueError('x')\n"
        out = run_rule(tmp_path, src, rel="repro/errors.py",
                       select=["RS104"])
        assert out == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = "def f():\n    raise ValueError('x')  # repro: noqa RS104\n"
        assert run_rule(tmp_path, src, select=["RS104"]) == []


# ---------------------------------------------------------------------------
# RS105: legacy global RNG
# ---------------------------------------------------------------------------

class TestRS105:
    def test_flags_legacy_calls(self, tmp_path):
        src = ("import numpy as np\n"
               "def f():\n"
               "    np.random.seed(0)\n"
               "    return np.random.rand(3)\n")
        out = run_rule(tmp_path, src, select=["RS105"])
        assert rules_of(out) == ["RS105", "RS105"]

    def test_generator_plumbing_passes(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(seed):\n"
               "    rng = np.random.default_rng(seed)\n"
               "    return rng.standard_normal(3)\n")
        assert run_rule(tmp_path, src, select=["RS105"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("import numpy as np\n"
               "def f():\n"
               "    return np.random.rand(3)  # repro: noqa RS105\n")
        assert run_rule(tmp_path, src, select=["RS105"]) == []


# ---------------------------------------------------------------------------
# RS106: __all__ / export drift
# ---------------------------------------------------------------------------

class TestRS106:
    def test_flags_missing_all_with_public_defs(self, tmp_path):
        src = "def api():\n    pass\n"
        out = run_rule(tmp_path, src, select=["RS106"])
        assert rules_of(out) == ["RS106"]
        assert "no __all__" in out[0].message

    def test_private_only_module_needs_no_all(self, tmp_path):
        src = "def _helper():\n    pass\n"
        assert run_rule(tmp_path, src, select=["RS106"]) == []

    def test_flags_phantom_export(self, tmp_path):
        src = "__all__ = ['gone']\ndef api():\n    pass\n"
        out = run_rule(tmp_path, src, select=["RS106"])
        assert rules_of(out) == ["RS106"]
        assert "'gone'" in out[0].message

    def test_flags_duplicate_export(self, tmp_path):
        src = "__all__ = ['api', 'api']\ndef api():\n    pass\n"
        out = run_rule(tmp_path, src, select=["RS106"])
        assert any("twice" in f.message for f in out)

    def test_flags_dynamic_all(self, tmp_path):
        src = "__all__ = sorted(globals())\ndef api():\n    pass\n"
        out = run_rule(tmp_path, src, select=["RS106"])
        assert any("not a static list" in f.message for f in out)

    def test_clean_module_passes(self, tmp_path):
        src = ("__all__ = ['api', 'CONST']\n"
               "CONST = 1\n"
               "def api():\n"
               "    pass\n")
        assert run_rule(tmp_path, src, select=["RS106"]) == []

    def test_star_import_disables_drift_check(self, tmp_path):
        src = ("from os.path import *\n"
               "__all__ = ['join']\n")
        assert run_rule(tmp_path, src, select=["RS106"]) == []

    def test_pytest_modules_are_exempt(self, tmp_path):
        src = "def test_api():\n    pass\n"
        for rel in ("benchmarks/test_fig.py", "benchmarks/conftest.py",
                    "tests/test_mod.py"):
            assert run_rule(tmp_path, src, rel=rel,
                            select=["RS106"]) == []


# ---------------------------------------------------------------------------
# RS107: bench publication via attach_series
# ---------------------------------------------------------------------------

class TestRS107:
    BENCH = "benchmarks/test_fig.py"

    def test_flags_bench_without_attach_series(self, tmp_path):
        src = ("def test_fig(benchmark):\n"
               "    benchmark(lambda: 1)\n")
        out = run_rule(tmp_path, src, rel=self.BENCH, select=["RS107"])
        assert rules_of(out) == ["RS107"]
        assert "never calls attach_series" in out[0].message

    def test_flags_direct_extra_info_write(self, tmp_path):
        src = ("from repro.obs import attach_series\n"
               "def test_fig(benchmark):\n"
               "    attach_series(benchmark, 'figX', points=[])\n"
               "    benchmark.extra_info['speedup'] = 2.0\n")
        out = run_rule(tmp_path, src, rel=self.BENCH, select=["RS107"])
        assert rules_of(out) == ["RS107"]
        assert "direct write" in out[0].message

    def test_flags_extra_info_update_and_setdefault(self, tmp_path):
        src = ("def helper(benchmark):\n"
               "    benchmark.extra_info.update(a=1)\n"
               "    benchmark.extra_info.setdefault('b', 2)\n")
        out = run_rule(tmp_path, src, rel=self.BENCH, select=["RS107"])
        assert rules_of(out) == ["RS107", "RS107"]

    def test_attach_series_bench_passes(self, tmp_path):
        src = ("from repro.obs import attach_series\n"
               "def test_fig(benchmark):\n"
               "    data = benchmark(lambda: 1)\n"
               "    attach_series(benchmark, 'figX', points=[])\n")
        assert run_rule(tmp_path, src, rel=self.BENCH,
                        select=["RS107"]) == []

    def test_non_bench_function_untouched(self, tmp_path):
        # No benchmark fixture, or not a test: nothing to publish.
        src = ("def test_shape(problem):\n"
               "    assert problem\n"
               "def make_cases(benchmark):\n"
               "    return []\n")
        assert run_rule(tmp_path, src, rel=self.BENCH,
                        select=["RS107"]) == []

    def test_not_enforced_outside_benchmarks(self, tmp_path):
        src = ("def test_fig(benchmark):\n"
               "    benchmark.extra_info['x'] = 1\n")
        assert run_rule(tmp_path, src, rel="repro/core/mod.py",
                        select=["RS107"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("def test_fig(benchmark):  # repro: noqa RS107\n"
               "    benchmark(lambda: 1)\n")
        assert run_rule(tmp_path, src, rel=self.BENCH,
                        select=["RS107"]) == []


# ---------------------------------------------------------------------------
# RS108: multi-GPU charges via the stream scheduler
# ---------------------------------------------------------------------------

class TestRS108:
    MGPU = "repro/gpu/multigpu.py"

    def test_flags_direct_device_charge(self, tmp_path):
        src = ("class Ex:\n"
               "    def op(self, secs):\n"
               "        self.device.charge('gemm_iter', secs, 'x')\n")
        out = run_rule(tmp_path, src, rel=self.MGPU, select=["RS108"])
        assert rules_of(out) == ["RS108"]
        assert "stream scheduler" in out[0].message

    def test_flags_any_charge_attribute(self, tmp_path):
        src = ("def f(dev, tl):\n"
               "    dev.charge('comms', 1.0, 'a')\n"
               "    tl.timeline.charge('comms', 1.0, 'b')\n")
        out = run_rule(tmp_path, src, rel=self.MGPU, select=["RS108"])
        assert rules_of(out) == ["RS108", "RS108"]

    def test_stream_submit_passes(self, tmp_path):
        src = ("class Ex:\n"
               "    def op(self, secs):\n"
               "        self.streams.submit('gemm_iter', secs)\n"
               "        self.streams.submit_group('comms', secs,\n"
               "                                  placements=[(0, 'd2h')])\n")
        assert run_rule(tmp_path, src, rel=self.MGPU,
                        select=["RS108"]) == []

    def test_not_enforced_elsewhere(self, tmp_path):
        src = ("def f(dev):\n"
               "    dev.charge('comms', 1.0, 'a')\n")
        assert run_rule(tmp_path, src, rel="repro/gpu/device.py",
                        select=["RS108"]) == []
        assert run_rule(tmp_path, src, rel="repro/gpu/cluster.py",
                        select=["RS108"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("def f(dev):\n"
               "    dev.charge('comms', 1.0, 'a')  # repro: noqa RS108\n")
        assert run_rule(tmp_path, src, rel=self.MGPU,
                        select=["RS108"]) == []

    def test_shipped_multigpu_is_clean(self):
        out = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "gpu" / "multigpu.py"],
            root=REPO_ROOT / "src", select=["RS108"])
        assert out == []


# ---------------------------------------------------------------------------
# RS109-RS111: stream-scheduler concurrency lints
# ---------------------------------------------------------------------------

_STREAMS_IMPORT = "from repro.gpu.streams import StreamScheduler\n"
MOD = "repro/gpu/mod.py"
MGPU = "repro/gpu/multigpu.py"


class TestRS109:
    def test_flags_bare_submit_without_ordering(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    s.submit('comms', 1.0, stream='compute')\n"
               "    s.submit_group('comms', 1.0, placements=[(0, 'd2h')])\n")
        out = run_rule(tmp_path, src, rel=MOD, select=["RS109"])
        assert rules_of(out) == ["RS109", "RS109"]
        assert "discarded" in out[0].message

    def test_flags_bare_barrier(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    s.barrier()\n")
        out = run_rule(tmp_path, src, rel=MOD, select=["RS109"])
        assert rules_of(out) == ["RS109"]
        assert "barrier" in out[0].message

    def test_kept_event_and_ordered_submits_pass(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    ev = s.submit('comms', 1.0)\n"
               "    s.submit('comms', 1.0, deps=[ev])\n"
               "    s.submit('comms', 1.0, after_all=True)\n"
               "    b = s.barrier()\n"
               "    return b\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS109"]) == []

    def test_not_applied_without_streams_import(self, tmp_path):
        # concurrent.futures-style .submit() is out of scope.
        src = ("def f(pool, job):\n"
               "    pool.submit(job, 1.0)\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS109"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    s.submit('comms', 1.0)  # repro: noqa RS109\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS109"]) == []


class TestRS110:
    @pytest.mark.parametrize("stream", ["comms", "h2d", "d2h"])
    def test_flags_unordered_transfer(self, tmp_path, stream):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               f"    ev = s.submit('comms', 1.0, stream='{stream}')\n"
               "    return ev\n")
        out = run_rule(tmp_path, src, rel=MOD, select=["RS110"])
        assert rules_of(out) == ["RS110"]
        assert "ordered by nothing" in out[0].message \
            or "racing its producer" in out[0].message

    def test_flags_empty_deps_literal(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    ev = s.submit('comms', 1.0, stream='d2h', deps=[],\n"
               "                  after_all=False)\n"
               "    return ev\n")
        assert rules_of(run_rule(tmp_path, src, rel=MOD,
                                 select=["RS110"])) == ["RS110"]

    def test_ordered_transfers_pass(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s, ev, d):\n"
               "    s.submit('comms', 1.0, stream='d2h', deps=[ev],\n"
               "             reads=['B'])\n"
               "    s.submit('comms', 1.0, stream='h2d',\n"
               "             after_all=(d == 0))\n"
               "    s.submit('comms', 1.0, stream='d2h', after_all=True)\n"
               "    s.submit('gemm_iter', 1.0, stream='compute')\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS110"]) == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    ev = s.submit('comms', 1.0, stream='d2h')"
               "  # repro: noqa RS110\n"
               "    return ev\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS110"]) == []


class TestRS111:
    def test_flags_unannotated_submit_in_multigpu(self, tmp_path):
        src = ("from .streams import StreamScheduler\n"
               "def f(s):\n"
               "    s.submit('comms', 1.0, after_all=True)\n"
               "    s.submit_group('comms', 1.0,\n"
               "                   placements=[(0, 'compute')],\n"
               "                   after_all=True)\n")
        out = run_rule(tmp_path, src, rel=MGPU, select=["RS111"])
        assert rules_of(out) == ["RS111", "RS111"]
        assert "race sanitizer" in out[0].message

    def test_annotated_and_forwarding_submits_pass(self, tmp_path):
        src = ("from .streams import StreamScheduler\n"
               "def f(s, reads, writes):\n"
               "    s.submit('comms', 1.0, after_all=True, writes=['B'])\n"
               "    s.submit('comms', 1.0, after_all=True, reads=['B'])\n"
               "    s.submit_group('comms', 1.0,\n"
               "                   placements=[(0, 'compute')],\n"
               "                   after_all=True,\n"
               "                   reads=reads, writes=writes)\n")
        assert run_rule(tmp_path, src, rel=MGPU, select=["RS111"]) == []

    def test_not_enforced_outside_multigpu(self, tmp_path):
        src = (_STREAMS_IMPORT +
               "def f(s):\n"
               "    s.submit('comms', 1.0, after_all=True)\n")
        assert run_rule(tmp_path, src, rel=MOD, select=["RS111"]) == []

    def test_shipped_multigpu_fully_annotated(self):
        out = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "gpu" / "multigpu.py"],
            root=REPO_ROOT / "src", select=["RS111"])
        assert out == []

    def test_suppressed_by_noqa(self, tmp_path):
        src = ("from .streams import StreamScheduler\n"
               "def f(s):\n"
               "    s.submit('comms', 1.0, after_all=True)"
               "  # repro: noqa RS111\n")
        assert run_rule(tmp_path, src, rel=MGPU, select=["RS111"]) == []


# ---------------------------------------------------------------------------
# RS113: stale suppressions
# ---------------------------------------------------------------------------

class TestRS113:
    def test_flags_stale_named_noqa(self, tmp_path):
        src = ("__all__ = []\n"
               "x = 1  # repro: noqa RS105\n")
        out = run_rule(tmp_path, src, rel=MOD)
        assert rules_of(out) == ["RS113"]
        assert "stale suppression" in out[0].message

    def test_used_noqa_not_flagged(self, tmp_path):
        src = ("__all__ = []\n"
               "import numpy as np\n"
               "x = np.random.rand(3)  # repro: noqa RS105\n")
        assert run_rule(tmp_path, src, rel=MOD) == []

    def test_stale_bare_noqa_flagged_on_full_run(self, tmp_path):
        src = ("__all__ = []\n"
               "x = 1  # repro: noqa\n")
        out = run_rule(tmp_path, src, rel=MOD)
        assert rules_of(out) == ["RS113"]
        assert "bare noqa" in out[0].message

    def test_partial_select_cannot_judge(self, tmp_path):
        # RS105 never ran, so its suppression may well be load-bearing.
        src = ("__all__ = []\n"
               "x = 1  # repro: noqa RS105\n")
        assert run_rule(tmp_path, src, rel=MOD,
                        select=["RS106", "RS113"]) == []
        # ... but selecting the named rule alongside RS113 does judge.
        assert rules_of(run_rule(tmp_path, src, rel=MOD,
                                 select=["RS105", "RS113"])) == ["RS113"]

    def test_explicit_rs113_opts_out(self, tmp_path):
        src = ("__all__ = []\n"
               "x = 1  # repro: noqa RS105, RS113\n")
        assert run_rule(tmp_path, src, rel=MOD) == []

    def test_docstring_noqa_example_is_not_a_directive(self, tmp_path):
        src = ('"""Suppress with ``# repro: noqa RS105`` on the line."""\n'
               "__all__ = []\n")
        assert run_rule(tmp_path, src, rel=MOD) == []


# ---------------------------------------------------------------------------
# Engine: suppressions, selection, errors
# ---------------------------------------------------------------------------

class TestEngine:
    def test_parse_noqa_variants(self):
        table = parse_noqa("a = 1  # repro: noqa\n"
                           "b = 2  # repro: noqa RS101\n"
                           "c = 3  # repro: noqa RS101, RS103\n"
                           "d = 4\n")
        assert table[1] is None
        assert table[2] == {"RS101"}
        assert table[3] == {"RS101", "RS103"}
        assert 4 not in table

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        src = ("import numpy as np\n"
               "def _f(a, b):\n"
               "    return np.random.rand(3) @ np.linalg.qr(a @ b)[0]"
               "  # repro: noqa\n")
        assert run_rule(tmp_path, src) == []

    def test_select_and_ignore(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(a, b):\n"
               "    np.random.seed(0)\n"
               "    return a @ b\n")
        both = run_rule(tmp_path, src, select=["RS101", "RS105"])
        assert sorted(rules_of(both)) == ["RS101", "RS105"]
        only = run_rule(tmp_path, src, select=["RS101", "RS105"],
                        ignore=["RS105"])
        assert rules_of(only) == ["RS101"]

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(StaticAnalysisError, match="unknown rule"):
            run_rule(tmp_path, "x = 1\n", select=["RS999"])

    def test_syntax_error_raises(self, tmp_path):
        with pytest.raises(StaticAnalysisError, match="cannot parse"):
            run_rule(tmp_path, "def f(:\n")

    def test_missing_path_raises(self):
        with pytest.raises(StaticAnalysisError, match="no such file"):
            analyze_paths([Path("/nonexistent/nowhere.py")])

    def test_findings_sorted_by_location(self, tmp_path):
        src = ("import numpy as np\n"
               "def f(a, b):\n"
               "    u = np.linalg.qr(a)\n"
               "    return a @ b\n")
        out = run_rule(tmp_path, src, select=["RS101"])
        assert [f.line for f in out] == sorted(f.line for f in out)

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        # Every rule is per file, so one parse per file serves them all.
        root = write_project(tmp_path, {
            "repro/core/a.py": "import numpy as np\n"
                               "def f(a, b):\n    return a @ b\n",
            "repro/gpu/multigpu.py": "__all__ = []\n",
            "benchmarks/test_x.py": "def test_x():\n    pass\n"})
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kw):
            parsed.append(Path(filename).name)
            return real_parse(source, filename, *args, **kw)

        monkeypatch.setattr(ast, "parse", counting_parse)
        findings = analyze_paths([root, root / "repro" / "core" / "a.py"],
                                 root=root)
        assert sorted(parsed) == ["a.py", "multigpu.py", "test_x.py"]
        assert "RS101" in rules_of(findings)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def _finding(line=10, message="untimed matrix product", context="f"):
    return AnalysisFinding(rule="RS101", path="repro/core/x.py",
                           line=line, col=4, message=message,
                           context=context)


class TestBaseline:
    def test_fingerprint_ignores_line_numbers(self):
        assert _finding(line=10).fingerprint() == \
            _finding(line=99).fingerprint()

    def test_fingerprint_keys_on_context_and_message(self):
        assert _finding(context="f").fingerprint() != \
            _finding(context="g").fingerprint()
        assert _finding(message="a").fingerprint() != \
            _finding(message="b").fingerprint()

    def test_roundtrip_suppresses_baselined(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [_finding()])
        new, n_base, stale = apply_baseline([_finding(line=42)],
                                            load_baseline(path))
        assert (new, n_base, stale) == ([], 1, [])

    def test_counts_catch_extra_occurrences(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [_finding()])
        new, n_base, _ = apply_baseline(
            [_finding(line=10), _finding(line=20)], load_baseline(path))
        assert n_base == 1 and len(new) == 1

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [_finding()])
        new, n_base, stale = apply_baseline([], load_baseline(path))
        assert new == [] and n_base == 0
        assert stale == [_finding().fingerprint()]

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"version": 99}')
        with pytest.raises(StaticAnalysisError, match="unsupported"):
            load_baseline(path)
        path.write_text("not json")
        with pytest.raises(StaticAnalysisError, match="cannot read"):
            load_baseline(path)


# ---------------------------------------------------------------------------
# Baseline maintenance (--update-baseline)
# ---------------------------------------------------------------------------

class TestUpdateBaseline:
    def test_prunes_stale_and_reports(self, tmp_path):
        root = write_project(tmp_path / "proj",
                             {"bad.py": _VIOLATIONS["RS104"]})
        baseline = tmp_path / "analysis-baseline.json"
        findings = analyze_paths([root], root=root, select=["RS104"])
        write_baseline(baseline, findings)
        assert len(load_baseline(baseline)) == 1

        # Fix the violation, then prune: the stale entry is dropped.
        (root / "bad.py").write_text(
            "from repro.errors import ConfigurationError\n"
            "def f():\n"
            "    raise ConfigurationError('x')\n",
            encoding="utf-8")
        fixed = analyze_paths([root], root=root, select=["RS104"])
        added, dropped, kept = update_baseline(baseline, fixed)
        assert added == [] and kept == []
        assert len(dropped) == 1 and dropped[0].startswith("RS104:")
        assert load_baseline(baseline) == {}

    def test_cli_update_baseline_prints_dropped(self, tmp_path, capsys,
                                                monkeypatch):
        root = write_project(tmp_path / "proj",
                             {"bad.py": _VIOLATIONS["RS104"]})
        monkeypatch.chdir(tmp_path)
        baseline = str(tmp_path / "bl.json")
        assert analyze_main([str(root), "--select", "RS104",
                             "--write-baseline", "--baseline",
                             baseline]) == EXIT_CLEAN
        (root / "bad.py").write_text("def ok():\n    return 1\n",
                                     encoding="utf-8")
        code = analyze_main([str(root), "--select", "RS104",
                             "--update-baseline", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN
        assert "dropped stale baseline entry RS104:" in out
        assert "1 dropped" in out


# ---------------------------------------------------------------------------
# CLI: exit-code contract
# ---------------------------------------------------------------------------

_VIOLATIONS = {
    "RS101": "def f(a, b):\n    return a @ b\n",
    "RS102": "def f(ex, x):\n    return ex.gemm(x, x, phase='warmup')\n",
    "RS103": ("from repro.gpu.device import ArrayLike\n"
              "def f(x: ArrayLike):\n"
              "    return float(x)\n"),
    "RS104": "def f():\n    raise ValueError('x')\n",
    "RS105": "import numpy as np\ndef f():\n    return np.random.rand(3)\n",
    "RS106": "def api():\n    pass\n",
    "RS107": ("def test_fig(benchmark):\n"
              "    benchmark.extra_info['speedup'] = 2.0\n"),
    "RS108": ("def f(dev):\n"
              "    dev.charge('comms', 1.0, 'x')\n"),
    "RS109": ("from repro.gpu.streams import StreamScheduler\n"
              "def f(s):\n"
              "    s.submit('comms', 1.0, stream='compute')\n"),
    "RS110": ("from repro.gpu.streams import StreamScheduler\n"
              "def f(s):\n"
              "    ev = s.submit('comms', 1.0, stream='d2h')\n"
              "    return ev\n"),
    "RS111": ("from .streams import StreamScheduler\n"
              "def f(s):\n"
              "    s.submit('comms', 1.0, after_all=True)\n"),
}

#: Rules scoped by path need their fixture at a matching location.
_VIOLATION_PATHS = {"RS107": ("benchmarks", "bad.py"),
                    "RS108": ("repro", "gpu", "multigpu.py"),
                    "RS111": ("repro", "gpu", "multigpu.py")}


class TestCLI:
    @pytest.mark.parametrize("rule", sorted(_VIOLATIONS))
    def test_each_rule_fails_its_fixture(self, tmp_path, rule, capsys):
        parts = _VIOLATION_PATHS.get(rule, ("repro", "core", "bad.py"))
        path = tmp_path.joinpath(*parts)
        path.parent.mkdir(parents=True)
        path.write_text(_VIOLATIONS[rule], encoding="utf-8")
        code = analyze_main([str(path), "--select", rule, "--no-baseline"])
        assert code == EXIT_FINDINGS
        assert rule in capsys.readouterr().out

    def test_rs113_fails_stale_suppression(self, tmp_path, capsys):
        # RS113 needs the named rule to have run, so it cannot live in
        # the single-rule ``--select`` parametrization above.
        path = tmp_path / "repro" / "core" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text("__all__ = []\nx = 1  # repro: noqa RS105\n",
                        encoding="utf-8")
        code = analyze_main([str(path), "--no-baseline"])
        assert code == EXIT_FINDINGS
        assert "RS113" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("__all__ = ['X']\nX = 1\n", encoding="utf-8")
        assert analyze_main([str(path), "--no-baseline"]) == EXIT_CLEAN

    def test_bad_path_exits_two(self, capsys):
        assert analyze_main(["/nonexistent/nowhere.py"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "x.py"
        path.write_text("X = 1\n")
        assert analyze_main([str(path), "--select", "RS999",
                             "--no-baseline"]) == EXIT_ERROR

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        path = tmp_path / "repro" / "core" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text(_VIOLATIONS["RS101"], encoding="utf-8")
        base = tmp_path / "base.json"
        assert analyze_main([str(path), "--select", "RS101", "--baseline",
                             str(base), "--write-baseline"]) == EXIT_CLEAN
        assert analyze_main([str(path), "--select", "RS101", "--baseline",
                             str(base)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # A *new* violation in the same file still fails.
        path.write_text(_VIOLATIONS["RS101"] +
                        "def g(a, b):\n    return a @ b\n",
                        encoding="utf-8")
        assert analyze_main([str(path), "--select", "RS101", "--baseline",
                             str(base)]) == EXIT_FINDINGS

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "repro" / "core" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text(_VIOLATIONS["RS101"], encoding="utf-8")
        code = analyze_main([str(path), "--select", "RS101",
                             "--format", "json", "--no-baseline"])
        assert code == EXIT_FINDINGS
        data = json.loads(capsys.readouterr().out)
        assert data["baselined"] == 0
        (finding,) = data["findings"]
        assert finding["rule"] == "RS101"
        assert finding["fingerprint"]

    def test_list_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in sorted(_VIOLATIONS) + ["RS113"]:
            assert rule in out
        for retired in ("RS112", "RS115", "RS116", "RS117", "RS118",
                        "RS119"):
            assert retired not in out

    def test_repro_bench_analyze_delegates(self, tmp_path, capsys):
        from repro.cli import main as bench_main
        path = tmp_path / "repro" / "core" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_text(_VIOLATIONS["RS104"], encoding="utf-8")
        code = bench_main(["analyze", str(path), "--no-baseline"])
        assert code == EXIT_FINDINGS
        assert "RS104" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------

class TestSarif:
    def _findings(self):
        return [AnalysisFinding(rule="RS101", path="repro/core/x.py",
                                line=12, col=4, message="untimed matrix "
                                "product", context="f")]

    def test_log_validates_against_structural_schema(self):
        log = to_sarif(self._findings(), all_rules())
        assert validate_sarif(log) == []
        assert log["version"] == "2.1.0"

    def test_result_fields(self):
        log = to_sarif(self._findings(), all_rules())
        run = log["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        assert set(all_rules()) <= set(ids)
        res = run["results"][0]
        assert res["ruleId"] == "RS101"
        assert ids[res["ruleIndex"]] == "RS101"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/core/x.py"
        assert loc["region"] == {"startLine": 12, "startColumn": 5}
        assert res["partialFingerprints"][
            "reproAnalyzeFingerprint/v1"] == self._findings()[0].fingerprint()

    def test_render_is_json(self):
        text = render_sarif(self._findings(), all_rules())
        assert validate_sarif(json.loads(text)) == []

    def test_validator_rejects_malformed_logs(self):
        assert validate_sarif({"version": "2.0.0", "runs": []})
        assert validate_sarif({"version": "2.1.0"})
        bad_region = to_sarif(self._findings(), all_rules())
        bad_region["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]["startLine"] = 0
        assert any("startLine" in e for e in validate_sarif(bad_region))
        bad_index = to_sarif(self._findings(), all_rules())
        bad_index["runs"][0]["results"][0]["ruleIndex"] = 9999
        assert any("ruleIndex" in e for e in validate_sarif(bad_index))

    def test_cli_sarif_output(self, tmp_path, capsys, monkeypatch):
        root = write_project(tmp_path / "proj",
                             {"bad.py": _VIOLATIONS["RS104"]})
        monkeypatch.chdir(tmp_path)
        code = analyze_main([str(root), "--select", "RS104",
                             "--format", "sarif", "--no-baseline"])
        assert code == EXIT_FINDINGS
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        assert log["runs"][0]["results"][0]["ruleId"] == "RS104"


# ---------------------------------------------------------------------------
# The decorator itself
# ---------------------------------------------------------------------------

class TestAllowUntimedMath:
    def test_identity_and_reason_attribute(self):
        @allow_untimed_math("testing")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f.__untimed_math_reason__ == "testing"

    def test_empty_reason_rejected(self):
        with pytest.raises(ConfigurationError):
            allow_untimed_math("")


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is clean against the committed baseline
# ---------------------------------------------------------------------------

class TestSelfCheck:
    def test_src_repro_clean_against_committed_baseline(self, capsys):
        # Same scope as the CI job: the library tree and the benches.
        code = analyze_main([str(REPO_ROOT / "src" / "repro"),
                             str(REPO_ROOT / "benchmarks"),
                             "--baseline",
                             str(REPO_ROOT / "analysis-baseline.json")])
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN, f"analyzer findings:\n{out}"

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0
        assert "RS101" in proc.stdout

    def test_static_analysis_error_in_hierarchy(self):
        assert issubclass(StaticAnalysisError, ReproError)
        assert issubclass(StaticAnalysisError, RuntimeError)


# ---------------------------------------------------------------------------
# The pre-commit hook and CI call the analyzer with flags that exist
# ---------------------------------------------------------------------------

_SHELL_STOP = ("|", "||", "&&", ";", ">", ">>", "2>&1")


def _analyzer_args(command):
    """Arguments of one ``python -m repro.analysis ...`` shell command,
    cut at the first shell operator or redirect."""
    words = shlex.split(command)
    args = []
    for word in words[words.index("repro.analysis") + 1:]:
        if word in _SHELL_STOP or word.startswith(">"):
            break
        args.append(word)
    return args


def _ci_analyzer_commands():
    """Every analyzer command in the CI workflow, continuations joined."""
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    text = re.sub(r"\\\n\s*", " ", text)
    return [line.strip() for line in text.splitlines()
            if "python -m repro.analysis" in line]


def _precommit_entry():
    """The repro-analyze hook's ``entry``, folded onto one line."""
    text = (REPO_ROOT / ".pre-commit-config.yaml").read_text(
        encoding="utf-8")
    m = re.search(r"^(\s*)entry:(.*?)\n(?=\1\w+:)", text,
                  re.MULTILINE | re.DOTALL)
    assert m, "no entry in .pre-commit-config.yaml"
    return " ".join(m.group(2).split())


class TestHookAndCIInvocations:
    """argparse exits 2 on an unknown flag and the engine on an unknown
    rule id, so a hook or CI step that names a retired one fails every
    commit or every CI run."""

    def test_ci_analyzer_commands_parse(self):
        commands = _ci_analyzer_commands()
        assert len(commands) >= 3, commands
        for command in commands:
            try:
                ns = build_parser().parse_args(_analyzer_args(command))
            except SystemExit:
                pytest.fail(f"CI passes an unknown flag: {command}")
            for rules in (ns.select, ns.ignore):
                if rules:
                    _resolve_rules(all_rules(), rules.split(","), None)
            for path in ns.paths:
                assert (REPO_ROOT / path).exists(), command

    def test_precommit_entry_runs_clean(self, capsys, monkeypatch):
        entry = _precommit_entry()
        assert entry.startswith("python -m repro.analysis"), entry
        # pre-commit appends the staged file names to the entry.
        staged = [str(REPO_ROOT / "src" / "repro" / rel) for rel in (
            "core/svd.py", "core/cur.py", "gpu/multigpu.py",
            "gpu/streams.py", "analysis/engine.py")]
        monkeypatch.chdir(REPO_ROOT)
        code = analyze_main(_analyzer_args(entry) + staged)
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN, out
        assert "0 finding(s)" in out
