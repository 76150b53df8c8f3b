"""Smoke tests for the examples and the documentation.

- The simulated-device examples run end to end (they finish in well
  under a second each); the numerics-heavy ones are import-checked.
- Docstring examples in the public modules execute (doctest).
- The documentation files reference things that exist.
"""

import doctest
import importlib
import pathlib
import re
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
DOCS = pathlib.Path(__file__).resolve().parent.parent


def _load_example(name: str):
    import importlib.util
    spec = importlib.util.spec_from_file_location(name,
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFastExamplesRun:
    @pytest.mark.parametrize("name", ["gpu_performance_tour",
                                      "multigpu_scaling",
                                      "cluster_projection"])
    def test_runs(self, name, capsys):
        mod = _load_example(name)
        mod.main()
        out = capsys.readouterr().out
        assert len(out) > 200  # produced its report


class TestHeavyExamplesImportable:
    @pytest.mark.parametrize("name", ["quickstart", "hapmap_clustering",
                                      "fixed_accuracy", "hss_solver"])
    def test_has_main(self, name):
        mod = _load_example(name)
        assert callable(mod.main)


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.core.random_sampling",
        "repro.core.svd",
        "repro.core.cur",
        "repro.hss.hodlr",
    ])
    def test_module_doctests(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module)
        assert result.attempted > 0, f"{module_name} lost its doctests"
        assert result.failed == 0


class TestDocsConsistency:
    def test_design_lists_every_bench(self):
        design = (DOCS / "DESIGN.md").read_text()
        benches = sorted((DOCS / "benchmarks").glob("test_*.py"))
        missing = [b.name for b in benches if b.name not in design]
        assert not missing, f"DESIGN.md does not index: {missing}"

    def test_experiments_covers_every_figure(self):
        experiments = (DOCS / "EXPERIMENTS.md").read_text()
        for fig in ["Table 1"] + [f"Figure {i}" for i in range(5, 19)]:
            assert fig in experiments, fig

    def test_readme_examples_exist(self):
        readme = (DOCS / "README.md").read_text()
        for line in readme.splitlines():
            if "examples/" in line and ".py" in line:
                name = line.split("examples/")[1].split(".py")[0]
                assert (EXAMPLES / f"{name}.py").exists(), name

    def test_readme_module_map_exists(self):
        """Every ``name/`` and ``file.py`` in the README's ``src/repro``
        tree names a real entry (``rules_*.py`` is a glob; ``a.py,
        b.py`` names two files)."""
        readme = (DOCS / "README.md").read_text()
        tree = readme.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0]
        root = DOCS / "src" / "repro"
        package, checked, missing = root, [], []
        for line in tree.splitlines():
            indent = len(line) - len(line.lstrip())
            if indent not in (2, 4):
                continue  # a description's continuation line
            base = root if indent == 2 else package
            for name in re.split(r"\s{2,}", line.strip())[0].split(", "):
                if indent == 2 and name.endswith("/"):
                    package = root / name
                checked.append(name)
                if not list(base.glob(name.rstrip("/"))):
                    missing.append(str(base.relative_to(root) / name))
        assert len(checked) > 30, checked
        assert not missing, f"README module map names: {missing}"

    def test_backticked_repro_names_resolve(self):
        """Every dotted ``repro.<...>`` name inside backticks in the
        README and ``docs/*.md`` imports and resolves by ``getattr``,
        so a deleted or renamed name cannot linger in the docs."""
        placeholders = {"repro.bench.figures.figNN_"}
        files = [DOCS / "README.md"] + sorted((DOCS / "docs").glob("*.md"))
        names = {}
        for path in files:
            for span in re.findall(r"`([^`\n]+)`", path.read_text()):
                for name in re.findall(
                        r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+", span):
                    names.setdefault(name, path.name)
        assert len(names) > 30, sorted(names)

        def resolves(name):
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                try:
                    for attr in parts[cut:]:
                        obj = getattr(obj, attr)
                except AttributeError:
                    return False
                return True
            return False

        stale = sorted(f"{name} ({where})" for name, where in names.items()
                       if name not in placeholders and not resolves(name))
        assert not stale, f"docs name missing objects: {stale}"

    def test_calibration_doc_constants_match(self):
        from repro.gpu.specs import KEPLER_K40C
        calib = (DOCS / "docs" / "calibration.md").read_text()
        assert str(int(KEPLER_K40C.dgemm_peak_gflops)) in calib
        assert "1.58" in calib  # iter_gemm_efficiency
        assert f"{KEPLER_K40C.gemm_bw_cap_gbs}" in calib
