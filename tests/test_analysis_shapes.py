"""Tests for the cost-consistency checks: the charged primitives that
bill kernel dimensions read from their operands, the runtime cost
audit (``--audit-costs``, which replaced the static drift rule RS124),
and the per-file rules RS122, RS123 and RS125, with their SARIF
export.

Each rule gets at least one true-positive and one clean fixture, and —
the load-bearing part — each check is mutation-tested against the real
tree: a single seeded defect (a row count read from the wrong operand,
a halved charge dimension, a dropped ``writes=`` entry, a conditionally
skipped charge) must flip the shipped tree from clean to caught.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import audit
from repro.analysis.cli import main as analyze_main
from repro.analysis.engine import all_rules, analyze_paths
from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif
from repro.errors import ShapeError
from repro.gpu.device import GPUExecutor, SymArray
from repro.obs.spans import SpanRecorder
from repro.perfmodel import costs

REPO_ROOT = Path(__file__).resolve().parents[1]

SHAPE_RULES = ["RS122", "RS123", "RS125"]


def write_project(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path``; return the root."""
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src, encoding="utf-8")
    return tmp_path


def run_rules(tmp_path, files, select=None):
    root = write_project(tmp_path, files)
    return analyze_paths([root], root=root,
                         select=select or SHAPE_RULES)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Charged primitives: kernel dims follow transposes, slices and stacks
# ---------------------------------------------------------------------------

def _recorded():
    """A simulated executor, and a recorder attached to read its
    charges kernel by kernel."""
    ex = GPUExecutor(seed=0)
    rec = SpanRecorder()
    ex.attach_recorder(rec)
    return ex, rec


def _charges(rec):
    return [(s.phase, s.name) for s in rec.kernel_spans()]


class TestShapePropagation:
    def test_transpose_swaps_axes(self):
        # C = B A^T with B (l x n), A (m x n): an l x m x n GEMM.
        ex, rec = _recorded()
        c = ex.iter_gemm_at(SymArray((8, 30)), SymArray((500, 30)))
        assert c.shape == (8, 500)
        assert _charges(rec)[-1] == ("gemm_iter", "gemm 8x500x30")

    def test_transpose_mismatch_is_flagged(self):
        # Forgetting the transpose cannot be billed: the contraction
        # dims disagree, so the primitive refuses before charging.
        ex, rec = _recorded()
        b = SymArray((8, 30))
        with pytest.raises(ShapeError, match="matmul mismatch"):
            ex.gemm(b, b)
        assert _charges(rec) == []

    def test_head_slice_rows(self):
        ex, rec = _recorded()
        out = ex.gemm(SymArray((8, 30))[:3], SymArray((30, 5)))
        assert out.shape == (3, 5)
        assert _charges(rec)[-1] == ("other", "gemm 3x5x30")

    def test_stacked_sum_of_rider_rows_is_clean(self):
        # The coalesced batch charge: ONE (sum l_i) x n GEMM for the
        # whole rider list (the repro.serve batcher's sum-l case).
        ex, rec = _recorded()
        a = SymArray((40, 9))
        blocks = ex.sample_gemm_stacked([SymArray((5, 40)),
                                         SymArray((7, 40))], a)
        assert [b.shape for b in blocks] == [(5, 9), (7, 9)]
        assert _charges(rec) == [("sampling", "gemm 12x9x40")]


# ---------------------------------------------------------------------------
# RS122: incomplete race annotations on stream submissions
# ---------------------------------------------------------------------------

class TestRS122:
    def test_missing_writes_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]
        assert findings[0].line == 3

    def test_empty_writes_literal_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=[])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]

    def test_complete_annotations_are_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=['B'])\n"
            "        self.streams.submit('k2', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert findings == []

    def test_dangling_derived_read_is_flagged(self, tmp_path):
        # 'B@g0' is a per-device replica of buffer 'B', but no
        # submission in the module ever writes 'B': the dependency
        # edge dangles and the scheduler can never order it.
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert rules_of(findings) == ["RS122"]
        assert "B@g0" in findings[0].message

    def test_dynamic_buffer_lists_open_the_module(self, tmp_path):
        # A forwarded variable makes the write set unknowable, so the
        # dangling-read check must stand down (no false positives).
        findings = run_rules(tmp_path, {"repro/gpu/sched.py": (
            "class S:\n"
            "    def fwd(self, bufs):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'],\n"
            "                            writes=bufs)\n"
            "    def go(self):\n"
            "        self.streams.submit('k2', 0, 1.0, reads=['B@g0'],\n"
            "                            writes=['C'])\n")},
            select=["RS122"])
        assert findings == []

    def test_untimed_modules_are_exempt(self, tmp_path):
        # Same code outside repro/gpu/ with no streams import: the
        # scheduler contract does not apply.
        findings = run_rules(tmp_path, {"other.py": (
            "class S:\n"
            "    def go(self):\n"
            "        self.streams.submit('k', 0, 1.0, reads=['A'])\n")},
            select=["RS122"])
        assert findings == []


# ---------------------------------------------------------------------------
# RS123: uncharged / conditionally charged math in timed scopes
# ---------------------------------------------------------------------------

_TIMED_HEADER = "import repro.gpu.streams\n"


class TestRS123:
    def test_conditionally_charged_math_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, l):\n"
            "        if l > 64:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert rules_of(findings) == ["RS123"]
        assert findings[0].line == 6

    def test_unconditional_charge_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b):\n"
            "        self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert findings == []

    def test_charge_only_inside_loop_is_flagged(self, tmp_path):
        # The loop may run zero times, leaving the trailing math
        # uncharged on that path.
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, chunks):\n"
            "        for c in chunks:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert rules_of(findings) == ["RS123"]

    def test_one_arm_charging_conditional_is_flagged(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _TIMED_HEADER +
            "class Exec:\n"
            "    def f(self, a, b, fast):\n"
            "        if fast:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "            return _mm(a, b, self.backend)\n"
            "        else:\n"
            "            return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert "RS123" in rules_of(findings)

    def test_untimed_module_is_exempt(self, tmp_path):
        # No repro.gpu import: plain numerics module, nothing to time.
        findings = run_rules(tmp_path, {"mod.py": (
            "class Exec:\n"
            "    def f(self, a, b, l):\n"
            "        if l > 64:\n"
            "            self._t_gemm(2, 3, 4, phase='other')\n"
            "        return _mm(a, b, self.backend)\n")},
            select=["RS123"])
        assert findings == []


# ---------------------------------------------------------------------------
# --audit-costs: the runtime cost audit against the Figure 5 closed forms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def audit_table():
    return {row[:3]: row for row in audit.audit_rows()}


def _audit_output(**kwargs):
    buf = io.StringIO()
    code = audit.audit_costs(out=buf, **kwargs)
    return code, buf.getvalue()


def _drifting(out):
    """``(point, ng, phase)`` of every row the audit marked DRIFT."""
    return {tuple(line.split()[:3]) for line in out.splitlines()
            if line.endswith("<-- DRIFT")}


class TestAuditCostsDrift:
    """Charged per-phase flops vs the Figure 5 closed forms, once a
    static rule (RS124) and now the runtime audit."""

    @pytest.mark.parametrize(
        "cell", audit.AUDIT_CELLS,
        ids=[f"{p}-ng{ng}-{phase}" for p, ng, phase in audit.AUDIT_CELLS])
    def test_audited_cell_within_tolerance(self, cell, audit_table):
        point, ng, phase, runtime, closed, drift = audit_table[cell]
        assert runtime > 0
        assert drift <= audit.DRIFT_TOLERANCE, \
            f"{cell}: charged {runtime:.6g} vs closed form {closed:.6g}"

    def test_fig15_single_device_drift_is_unchanged(self, audit_table):
        drifts = {phase: round(100 * audit_table["fig15", 1, phase][5], 2)
                  for phase in audit.COST_STEPS}
        assert drifts == {"sampling": 0.0, "gemm_iter": 0.0,
                          "orth_iter": 0.01, "qrcp": 0.0, "qr": 0.01}

    def test_matching_model_is_clean(self):
        code, out = _audit_output()
        assert code == EXIT_CLEAN, out
        assert _drifting(out) == set()

    def test_halved_charge_drifts(self, monkeypatch):
        # Halve one dimension in the single-device GEMM charge step:
        # every ng=1 GEMM phase drifts; the multi-GPU cells charge
        # through their own step and stay clean.
        original = GPUExecutor._t_gemm

        def halved(self, m, n, k, phase, *args):
            return original(self, m, n // 2, k, phase, *args)

        monkeypatch.setattr(GPUExecutor, "_t_gemm", halved)
        code, out = _audit_output()
        assert code == EXIT_FINDINGS
        assert _drifting(out) == {(point, "1", phase)
                                  for point in audit.AUDIT_POINTS
                                  for phase in ("sampling", "gemm_iter")}

    def test_wrong_closed_form_drifts(self, monkeypatch):
        # Drift is symmetric: a wrong coefficient in a closed form is
        # the same finding as a wrong charge in the executor.
        def doubled(m, n, l):
            return costs.CostModel(4.0 * l * m * n, 0.0)

        monkeypatch.setitem(audit.COST_STEPS, "sampling",
                            (doubled, ("m", "n", "l"), 1.0))
        code, out = _audit_output()
        assert code == EXIT_FINDINGS
        assert {cell[2] for cell in _drifting(out)} == {"sampling"}
        assert "DRIFT in 5 cell(s)" in out


# ---------------------------------------------------------------------------
# RS125: async hygiene in the serving layer
# ---------------------------------------------------------------------------

class TestRS125:
    def test_blocking_call_in_async_def(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "async def worker(q):\n"
            "    time.sleep(0.1)\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]
        assert findings[0].line == 3

    def test_awaited_asyncio_sleep_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "async def worker(q):\n"
            "    await asyncio.sleep(0.1)\n")}, select=["RS125"])
        assert findings == []

    def test_unawaited_coroutine_statement(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "async def worker(q):\n"
            "    asyncio.sleep(0.1)\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]

    def test_unbounded_queue_in_async_module(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self.q = asyncio.Queue()\n"
            "    async def pump(self):\n"
            "        await self.q.get()\n")}, select=["RS125"])
        assert rules_of(findings) == ["RS125"]

    def test_bounded_queue_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import asyncio\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self.q = asyncio.Queue(maxsize=8)\n"
            "    async def pump(self):\n"
            "        await self.q.get()\n")}, select=["RS125"])
        assert findings == []

    def test_offloaded_blocking_work_is_clean(self, tmp_path):
        # run_in_executor's lambda runs on a thread, not the loop:
        # nested scopes are exempt from the blocking-leaf check.
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "async def worker(loop, pool):\n"
            "    await loop.run_in_executor(pool,\n"
            "                               lambda: time.sleep(0.1))\n")},
            select=["RS125"])
        assert findings == []

    def test_sync_only_module_is_exempt(self, tmp_path):
        findings = run_rules(tmp_path, {"svc.py": (
            "import time\n"
            "def worker(q):\n"
            "    time.sleep(0.1)\n")}, select=["RS125"])
        assert findings == []


# ---------------------------------------------------------------------------
# Load-bearing mutations: each check must catch its seeded defect in a
# copy of the REAL tree (not a fixture), and the unmutated copy must be
# clean.  The audit measures the imported package, so it runs in a
# subprocess that imports the copy.
# ---------------------------------------------------------------------------

_GEMM_DIMS = ("        m, k = shape_of(x)\n"
              "        k_y, n = shape_of(y)\n")
_GEMM_CHARGE = "        self._t_gemm(m, n, k, phase, split, reads)\n"


class TestShapeMutationsRealTree:
    def _copy_tree(self, tmp_path):
        dest = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return dest

    def _mutate(self, dest, rel, old, new):
        target = dest / rel
        src = target.read_text(encoding="utf-8")
        assert src.count(old) == 1, f"mutation target not unique in {rel}"
        target.write_text(src.replace(old, new), encoding="utf-8")

    def _analyzer(self, tmp_path, *args):
        """``python -m repro.analysis ARGS`` importing the copied tree."""
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        return proc.returncode, proc.stdout + proc.stderr

    def _audit(self, tmp_path):
        return self._analyzer(tmp_path, "--audit-costs")

    def test_unmutated_tree_is_clean(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=SHAPE_RULES)
        assert findings == [], [f.render() for f in findings]
        code, out = self._audit(tmp_path)
        assert code == EXIT_CLEAN, out

    def test_wrong_operand_row_count_caught_by_audit(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(dest, "gpu/device.py", _GEMM_DIMS,
                     "        m, k = shape_of(y)[0], shape_of(x)[1]\n"
                     "        k_y, n = shape_of(y)\n")
        code, out = self._audit(tmp_path)
        assert code == EXIT_FINDINGS, out
        assert "DRIFT" in out and "fig15 ng=1 sampling" in out, out

    def test_dropped_writes_entry_caught_by_rs122(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(
            dest, "gpu/multigpu.py",
            'reads=["B@g0"], writes=["B_qrcp"])',
            'reads=["B@g0"])')
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=["RS122"])
        assert rules_of(findings) == ["RS122"], \
            [f.render() for f in findings]
        assert "multigpu" in findings[0].path

    def test_conditional_charge_caught_by_rs123(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(dest, "gpu/device.py", _GEMM_CHARGE,
                     "        if m > 64:\n    " + _GEMM_CHARGE)
        code, out = self._analyzer(tmp_path, "src/repro", "--select",
                                   "RS123", "--no-baseline")
        assert code == EXIT_FINDINGS, out
        found = [line for line in out.splitlines() if "RS123" in line]
        assert len(found) == 1 and "gpu/device.py" in found[0], out

    def test_mischarged_coefficient_caught_by_audit(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        self._mutate(dest, "gpu/device.py", _GEMM_CHARGE,
                     _GEMM_CHARGE.replace("m, n, k", "m, n // 2, k"))
        code, out = self._audit(tmp_path)
        assert code == EXIT_FINDINGS, out
        assert "DRIFT" in out and "fig15 ng=1 sampling" in out, out


# ---------------------------------------------------------------------------
# SARIF round-trip
# ---------------------------------------------------------------------------

_RS123_BAD = (
    "import repro.gpu.streams\n"
    "class Exec:\n"
    "    def sample_gemm(self, omega, a, l):\n"
    "        if l > 64:\n"
    "            self._t_gemm(l, 3, 4, phase='sampling')\n"
    "        return _mm(omega, a, self.backend)\n")


class TestShapeSarif:
    def test_shape_rules_are_in_the_driver_catalog(self):
        registry = all_rules()
        assert set(SHAPE_RULES) <= set(registry)
        assert not {"RS121", "RS124"} & set(registry)

    def test_cli_sarif_round_trip(self, tmp_path, capsys, monkeypatch):
        root = write_project(tmp_path / "proj", {"exec.py": _RS123_BAD})
        monkeypatch.chdir(tmp_path)
        code = analyze_main([str(root), "--select", "RS123",
                             "--format", "sarif", "--no-baseline"])
        assert code == EXIT_FINDINGS
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        res = log["runs"][0]["results"][0]
        assert res["ruleId"] == "RS123"
        ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids[res["ruleIndex"]] == "RS123"

    def test_render_matches_to_sarif(self, tmp_path):
        findings = run_rules(tmp_path, {"exec.py": _RS123_BAD},
                             select=["RS123"])
        assert rules_of(findings) == ["RS123"]
        registry = all_rules()
        assert json.loads(render_sarif(findings, registry)) \
            == to_sarif(findings, registry)


# ---------------------------------------------------------------------------
# --audit-costs: the command-line gate
# ---------------------------------------------------------------------------

class TestAuditCosts:
    def test_shipped_tree_passes_the_audit(self):
        code, out = _audit_output()
        assert code == EXIT_CLEAN, out
        for phase in audit.COST_STEPS:
            assert phase in out
        for point in audit.AUDIT_POINTS:
            assert point in out
        rows = [line for line in out.splitlines()
                if line.split()[:1] and line.split()[0] in audit.AUDIT_POINTS]
        assert len(rows) == len(audit.AUDIT_CELLS)

    def test_audit_detects_a_mischarge(self, monkeypatch):
        # A wrong orthogonalization flop count on one device: orth_iter
        # and qr drift at ng=1 (the multi-GPU runtime has its own
        # charge step for the distributed factorization).
        from repro.gpu import device
        monkeypatch.setattr(device, "qr_flops",
                            lambda long, short: 3.0 * long * short * short)
        code, out = _audit_output()
        assert code == EXIT_FINDINGS, out
        assert {(p, ng, phase) for p, ng, phase in _drifting(out)
                if ng == "1"} == {(point, "1", phase)
                                  for point in audit.AUDIT_POINTS
                                  for phase in ("orth_iter", "qr")}

    def test_cli_flag_is_wired(self, capsys, monkeypatch):
        # The audit measures the imported package: positional paths,
        # even missing ones, are ignored.
        monkeypatch.chdir(REPO_ROOT)
        code = analyze_main(["no/such/path", "--audit-costs"])
        assert code == EXIT_CLEAN
        assert "audit-costs" in capsys.readouterr().out
