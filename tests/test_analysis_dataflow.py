"""Tests for the cross-module dataflow rules (RS115-RS119) and the
supporting machinery: the residency lattice, the incremental cache,
parallel analysis, baseline maintenance, and SARIF export.

Each rule gets at least one true-positive and one clean (negative)
fixture; the load-bearing mutation test checks that deleting the
``to_host`` download in the multi-GPU executor is caught by RS115.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.baseline import (load_baseline, update_baseline,
                                     write_baseline)
from repro.analysis.cache import AnalysisCache, selection_key
from repro.analysis.cli import main as analyze_main
from repro.analysis.engine import all_rules, analyze_paths, run_analysis
from repro.analysis.findings import (EXIT_CLEAN, EXIT_FINDINGS,
                                     AnalysisFinding)
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

DATAFLOW_RULES = ["RS115", "RS116", "RS117", "RS118", "RS119"]


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
                         select=select or DATAFLOW_RULES)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# RS115: device value reaching host-only math
# ---------------------------------------------------------------------------

class TestRS115:
    def test_flags_direct_hostmath_on_device_value(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends import hostmath\n"
            "def bad(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    return hostmath.norm(d)\n")})
        assert rules_of(findings) == ["RS115"]
        assert findings[0].line == 4

    def test_to_host_downloads_are_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends import hostmath\n"
            "def good(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    g = ex.gemm(d, d)\n"
            "    h = ex.to_host(g)\n"
            "    return hostmath.norm(h)\n")})
        assert findings == []

    def test_interprocedural_flow_across_modules(self, tmp_path):
        findings = run_rules(tmp_path, {
            "sinkmod.py": ("from repro.backends import hostmath\n"
                           "def sink(x):\n"
                           "    return hostmath.norm2(x)\n"),
            "caller.py": ("from sinkmod import sink\n"
                          "def caller(ex, a):\n"
                          "    d = ex.to_device(a)\n"
                          "    return sink(d)\n")})
        assert rules_of(findings) == ["RS115"]
        # The finding is anchored at the sink-side call site.
        assert findings[0].path == "caller.py"
        assert "parameter 'x'" in findings[0].message

    def test_flags_value_comparison_on_device(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "def bad(ex, a, tol):\n"
            "    d = ex.to_device(a)\n"
            "    return d > tol\n")})
        assert rules_of(findings) == ["RS115"]

    def test_identity_compare_and_shape_are_not_reads(self, tmp_path):
        # ``d is None`` compares references and ``d.shape`` is host-side
        # metadata; neither touches device array contents.
        findings = run_rules(tmp_path, {"mod.py": (
            "def meta(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    if d is None:\n"
            "        return 0\n"
            "    return d.shape[0] == 0\n")})
        assert findings == []

    def test_declared_host_return_of_device_value(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.analysis.annotations import residency\n"
            "class Exec:\n"
            "    @residency(returns='host')\n"
            "    def broken(self, a):\n"
            "        b = self.to_device(a)\n"
            "        return b\n")})
        assert rules_of(findings) == ["RS115"]

    def test_noqa_at_sink_suppresses(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends import hostmath\n"
            "def bad(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    return hostmath.norm(d)  # repro: noqa RS115\n")},
            select=DATAFLOW_RULES + ["RS113"])
        assert findings == []

    def test_noqa_at_source_does_not_suppress(self, tmp_path):
        # Suppression is sink-side by design: the noqa sits where the
        # device value was produced, not where it is misused.
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends import hostmath\n"
            "def bad(ex, a):\n"
            "    d = ex.to_device(a)  # repro: noqa RS115\n"
            "    return hostmath.norm(d)\n")},
            select=DATAFLOW_RULES + ["RS113"])
        assert "RS115" in rules_of(findings)

    def test_rs113_flags_stale_dataflow_noqa(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "def fine(ex, a):\n"
            "    return ex.to_host(ex.gemm(ex.to_device(a), a))"
            "  # repro: noqa RS115\n")},
            select=DATAFLOW_RULES + ["RS113"])
        assert rules_of(findings) == ["RS113"]


# ---------------------------------------------------------------------------
# RS116: transfer ping-pong
# ---------------------------------------------------------------------------

class TestRS116:
    def test_flags_upload_then_download(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "def pingpong(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    return ex.to_host(d)\n")})
        assert rules_of(findings) == ["RS116"]
        assert "ping-pong" in findings[0].message

    def test_flags_reupload_of_device_value(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "def reupload(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    return ex.to_device(d)\n")})
        assert rules_of(findings) == ["RS116"]
        assert "re-upload" in findings[0].message

    def test_kernel_between_transfers_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "def good(ex, a):\n"
            "    d = ex.to_device(a)\n"
            "    g = ex.gemm(d, d)\n"
            "    return ex.to_host(g)\n")})
        assert findings == []


# ---------------------------------------------------------------------------
# RS117: backend handle escaping the executor contract
# ---------------------------------------------------------------------------

class TestRS117:
    def test_flags_module_level_global(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends.registry import resolve_backend\n"
            "HANDLE = resolve_backend(None)\n")})
        assert rules_of(findings) == ["RS117"]

    def test_flags_public_return_outside_backends(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends.registry import resolve_backend\n"
            "def get_handle():\n"
            "    return resolve_backend(None)\n")})
        assert rules_of(findings) == ["RS117"]

    def test_flags_handle_into_untimed_scope(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.analysis.annotations import allow_untimed_math\n"
            "from repro.backends.registry import resolve_backend\n"
            "@allow_untimed_math('diag')\n"
            "def diag(a, backend):\n"
            "    return a\n"
            "def passer():\n"
            "    b = resolve_backend(None)\n"
            "    return diag(1.0, b)\n")})
        assert rules_of(findings) == ["RS117"]

    def test_private_helper_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "from repro.backends.registry import resolve_backend\n"
            "def _private_handle():\n"
            "    return resolve_backend(None)\n")})
        assert findings == []

    def test_backends_package_is_exempt(self, tmp_path):
        findings = run_rules(tmp_path, {"repro/backends/reg2.py": (
            "from repro.backends.registry import resolve_backend\n"
            "def get_handle():\n"
            "    return resolve_backend(None)\n")})
        assert findings == []


# ---------------------------------------------------------------------------
# RS118: timed work reachable from an unaccounted scope
# ---------------------------------------------------------------------------

_SCHED = ("from repro.gpu import streams\n"
          "class Sched:\n"
          "    def tick(self, device):\n"
          "        device.charge('other', 1.0)\n")


class TestRS118:
    def test_flags_untimed_scope_reaching_charge(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _SCHED +
            "from repro.analysis.annotations import allow_untimed_math\n"
            "@allow_untimed_math('diag')\n"
            "def diag(sched, device):\n"
            "    sched.tick(device)\n")})
        assert rules_of(findings) == ["RS118"]

    def test_plain_function_is_clean(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _SCHED +
            "def normal(sched, device):\n"
            "    sched.tick(device)\n")})
        assert findings == []

    def test_main_guard_is_exempt(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            _SCHED +
            "def entry(sched, device):\n"
            "    sched.tick(device)\n"
            "if __name__ == '__main__':\n"
            "    entry(None, None)\n")})
        assert findings == []


# ---------------------------------------------------------------------------
# RS119: RNG not derived from the configured seed
# ---------------------------------------------------------------------------

class TestRS119:
    def test_flags_unseeded_and_hardcoded(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "def unseeded():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.standard_normal(4)\n"
            "def hardcoded():\n"
            "    rng = np.random.default_rng(42)\n"
            "    return rng.standard_normal(4)\n")})
        assert rules_of(findings) == ["RS119", "RS119"]

    def test_seed_from_parameter_is_blessed(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "def seeded(cfg):\n"
            "    rng = np.random.default_rng(cfg.seed)\n"
            "    return rng.standard_normal(4)\n")})
        assert findings == []

    def test_interprocedural_rng_flow(self, tmp_path):
        findings = run_rules(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "def draw_with(rng):\n"
            "    return rng.standard_normal(3)\n"
            "def flows_unseeded():\n"
            "    rng = np.random.default_rng()\n"
            "    return draw_with(rng)\n")})
        assert rules_of(findings) == ["RS119"]
        assert "parameter 'rng'" in findings[0].message

    def test_or_fallback_is_clean(self, tmp_path):
        # ``rng or default_rng()`` merges blessed and unblessed; merge
        # points get the benefit of the doubt.
        findings = run_rules(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "def fallback(rng=None):\n"
            "    rng = rng or np.random.default_rng()\n"
            "    return rng.standard_normal(2)\n")})
        assert findings == []


# ---------------------------------------------------------------------------
# Load-bearing mutation: a deleted to_host in the multi-GPU executor
# ---------------------------------------------------------------------------

class TestToHostMutation:
    GPU_FILES = ["gpu/multigpu.py", "gpu/device.py", "gpu/streams.py",
                 "gpu/trace.py", "analysis/annotations.py"]

    def _copy_tree(self, tmp_path):
        dest = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", dest)
        return dest

    def test_unmutated_tree_is_clean(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=DATAFLOW_RULES)
        assert findings == []

    def test_deleted_to_host_is_caught_by_rs115(self, tmp_path):
        dest = self._copy_tree(tmp_path)
        target = dest / "gpu" / "multigpu.py"
        src = target.read_text(encoding="utf-8")
        mutated = src.replace(
            '                       reads=["Omega", "A"])\n'
            "        self._reduce_b(*shape_of(b))\n"
            "        return self.to_host(b)\n",
            '                       reads=["Omega", "A"])\n'
            "        self._reduce_b(*shape_of(b))\n"
            "        return b\n")
        assert mutated != src, "mutation target not found in multigpu.py"
        target.write_text(mutated, encoding="utf-8")
        findings = analyze_paths([dest], root=tmp_path / "src",
                                 select=["RS115"])
        assert any(f.rule == "RS115" and "multigpu" in f.path
                   for f in findings), [f.render() for f in findings]


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------

_CACHE_PROJ = {
    "liba.py": ("from repro.backends import hostmath\n"
                "def source(ex, a):\n"
                "    return ex.to_device(a)\n"),
    "libb.py": ("from liba import source\n"
                "from repro.backends import hostmath\n"
                "def bad(ex, a):\n"
                "    return hostmath.norm(source(ex, a))\n"),
    "libc.py": ("def unrelated():\n"
                "    return 1\n"),
}


class TestIncrementalCache:
    def test_second_run_has_zero_parses_and_identical_findings(
            self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        cache = AnalysisCache(tmp_path / "cache")
        first = run_analysis([root], root=root, select=DATAFLOW_RULES,
                             cache=cache)
        assert first.stats.parses == 3
        assert first.stats.cache_hits == 0

        cache2 = AnalysisCache(tmp_path / "cache")
        second = run_analysis([root], root=root, select=DATAFLOW_RULES,
                              cache=cache2)
        assert second.stats.parses == 0
        assert second.stats.analyzed == 0
        assert second.stats.cache_hits == 3
        assert ([f.render() for f in second.findings]
                == [f.render() for f in first.findings])
        assert rules_of(first.findings) == ["RS115"]

    def test_edit_invalidates_only_import_graph_dependents(self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        cache = AnalysisCache(tmp_path / "cache")
        run_analysis([root], root=root, select=DATAFLOW_RULES, cache=cache)

        # Editing liba re-analyzes liba and its dependent libb, while
        # libc (no import edge to liba) replays from cache.
        liba = root / "liba.py"
        liba.write_text(_CACHE_PROJ["liba.py"] + "\n# touched\n",
                        encoding="utf-8")
        cache2 = AnalysisCache(tmp_path / "cache")
        result = run_analysis([root], root=root, select=DATAFLOW_RULES,
                              cache=cache2)
        assert result.stats.analyzed == 2
        assert result.stats.cache_hits == 1
        assert rules_of(result.findings) == ["RS115"]

    def test_changed_selection_invalidates(self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        cache = AnalysisCache(tmp_path / "cache")
        run_analysis([root], root=root, select=DATAFLOW_RULES, cache=cache)
        cache2 = AnalysisCache(tmp_path / "cache")
        result = run_analysis([root], root=root, select=["RS115"],
                              cache=cache2)
        assert result.stats.cache_hits == 0

    def test_selection_key_is_order_insensitive(self):
        assert (selection_key(["RS115", "RS116"], ["a.py", "b.py"])
                == selection_key(["RS116", "RS115"], ["b.py", "a.py"]))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        cache = AnalysisCache(tmp_path / "cache")
        run_analysis([root], root=root, select=DATAFLOW_RULES, cache=cache)
        for entry in (tmp_path / "cache").glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        cache2 = AnalysisCache(tmp_path / "cache")
        result = run_analysis([root], root=root, select=DATAFLOW_RULES,
                              cache=cache2)
        assert result.stats.cache_hits == 0
        assert rules_of(result.findings) == ["RS115"]


# ---------------------------------------------------------------------------
# Parallel analysis
# ---------------------------------------------------------------------------

class TestParallelJobs:
    def test_jobs_do_not_change_findings_or_order(self, tmp_path):
        files = dict(_CACHE_PROJ)
        files["libd.py"] = ("import numpy as np\n"
                            "def unseeded():\n"
                            "    rng = np.random.default_rng()\n"
                            "    return rng.standard_normal(4)\n")
        root = write_project(tmp_path / "proj", files)
        serial = run_analysis([root], root=root, select=DATAFLOW_RULES,
                              jobs=1)
        fanned = run_analysis([root], root=root, select=DATAFLOW_RULES,
                              jobs=2)
        assert ([f.render() for f in serial.findings]
                == [f.render() for f in fanned.findings])
        assert len(serial.findings) == 2


# ---------------------------------------------------------------------------
# Baseline maintenance (--update-baseline)
# ---------------------------------------------------------------------------

class TestUpdateBaseline:
    def test_prunes_stale_and_reports(self, tmp_path):
        root = write_project(tmp_path / "proj", _CACHE_PROJ)
        baseline = tmp_path / "analysis-baseline.json"
        findings = analyze_paths([root], root=root, select=DATAFLOW_RULES)
        write_baseline(baseline, findings)
        assert len(load_baseline(baseline)) == 1

        # Fix the violation, then prune: the stale entry is dropped.
        (root / "libb.py").write_text(
            "from liba import source\n"
            "def fine(ex, a):\n"
            "    return ex.to_host(ex.gemm(source(ex, a), a))\n",
            encoding="utf-8")
        fixed = analyze_paths([root], root=root, select=DATAFLOW_RULES)
        added, dropped, kept = update_baseline(baseline, fixed)
        assert added == [] and kept == []
        assert len(dropped) == 1 and dropped[0].startswith("RS115:")
        assert load_baseline(baseline) == {}

    def test_cli_update_baseline_prints_dropped(self, tmp_path, capsys,
                                                monkeypatch):
        root = write_project(tmp_path / "proj", {
            "bad.py": ("from repro.backends import hostmath\n"
                       "def bad(ex, a):\n"
                       "    return hostmath.norm(ex.to_device(a))\n")})
        monkeypatch.chdir(tmp_path)
        baseline = str(tmp_path / "bl.json")
        assert analyze_main([str(root), "--select", "RS115",
                             "--write-baseline", "--baseline", baseline,
                             "--no-cache"]) == EXIT_CLEAN
        (root / "bad.py").write_text("def ok():\n    return 1\n",
                                     encoding="utf-8")
        code = analyze_main([str(root), "--select", "RS115",
                             "--update-baseline", "--baseline", baseline,
                             "--no-cache"])
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN
        assert "dropped stale baseline entry RS115:" in out
        assert "1 dropped" in out


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------

class TestSarif:
    def _findings(self):
        return [AnalysisFinding(rule="RS115", path="repro/core/x.py",
                                line=12, col=4, message="device value "
                                "reaches hostmath", context="f")]

    def test_log_validates_against_structural_schema(self):
        log = to_sarif(self._findings(), all_rules())
        assert validate_sarif(log) == []
        assert log["version"] == "2.1.0"

    def test_result_fields(self):
        log = to_sarif(self._findings(), all_rules())
        run = log["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        assert set(DATAFLOW_RULES) <= set(ids)
        res = run["results"][0]
        assert res["ruleId"] == "RS115"
        assert ids[res["ruleIndex"]] == "RS115"
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
        root = write_project(tmp_path / "proj", {
            "bad.py": ("from repro.backends import hostmath\n"
                       "def bad(ex, a):\n"
                       "    return hostmath.norm(ex.to_device(a))\n")})
        monkeypatch.chdir(tmp_path)
        code = analyze_main([str(root), "--select", "RS115",
                             "--format", "sarif", "--no-baseline",
                             "--no-cache"])
        assert code == EXIT_FINDINGS
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        assert log["runs"][0]["results"][0]["ruleId"] == "RS115"


# ---------------------------------------------------------------------------
# Runtime residency declarations
# ---------------------------------------------------------------------------

class TestResidencyMarker:
    def test_records_declaration_on_function(self):
        from repro.analysis.annotations import residency

        @residency(returns="device", params={"a": "host"})
        def f(a):
            return a

        assert f.__residency__ == {"returns": "device",
                                   "params": {"a": "host"}}
        assert f(3) == 3

    def test_rejects_unknown_residency(self):
        from repro.analysis.annotations import residency
        with pytest.raises(ConfigurationError):
            residency(returns="gpu")
        with pytest.raises(ConfigurationError):
            residency(params={"a": "pinned"})

    def test_executor_transfers_are_bit_identical(self):
        from repro.gpu.device import NumpyExecutor
        ex = NumpyExecutor(seed=0)
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        d = ex.to_device(a)
        h = ex.to_host(d)
        assert h.dtype == a.dtype
        np.testing.assert_array_equal(h, a)

    def test_symbolic_arrays_pass_through(self):
        from repro.gpu import SymArray
        from repro.gpu.device import NumpyExecutor
        ex = NumpyExecutor(seed=0)
        s = SymArray((64, 64))
        assert ex.to_device(s) is s
        assert ex.to_host(s) is s


# ---------------------------------------------------------------------------
# Self-check: the dataflow family is clean on the shipped tree
# ---------------------------------------------------------------------------

class TestDataflowSelfCheck:
    def test_shipped_tree_clean_under_rs115_to_rs119(self):
        findings = analyze_paths(
            [REPO_ROOT / "src" / "repro"],
            root=REPO_ROOT / "src",
            select=DATAFLOW_RULES)
        assert findings == [], [f.render() for f in findings]
