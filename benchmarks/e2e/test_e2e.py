"""Tests of the benchmark itself: ``PYTHONPATH=src pytest benchmarks/e2e``.

One smoke-scale run of every workload (untraced and traced) feeds most
tests; the checks are also exercised directly on deliberately broken
results to show they are load-bearing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--trace", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    reports = {(r["workload"], r["trace"]): r for r in lines[:-1]}
    return reports, lines[-1]


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(smoke, name):
    reports, _ = smoke
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = reports[(name, trace)]["metrics"]
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in got.items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in got.values())


@pytest.mark.parametrize("name", NAMES)
def test_no_op_fails(smoke, name):
    reports, last = smoke
    for trace in (0, 1):
        report = reports[(name, trace)]
        assert report["failed_ratio"] == 0, report["problems"]
        assert report["attempted"] > 0
    assert last["correct"] and last["failed"] == 0


def test_symbolic_sweep_never_calls_a_backend(smoke):
    layers = smoke[0][("paper_sweep_symbolic", 1)]["metrics"]
    calls = {k: v["value"] for k, v in layers.items()
             if k.startswith("backends.") and k.endswith(".calls")}
    assert calls and not any(calls.values())
    assert layers["bench.timed_fixed_rank.calls"]["value"] > 0


def test_single_gpu_run_never_calls_the_stream_scheduler(smoke):
    layers = smoke[0][("fixed_rank_real", 1)]["metrics"]
    assert layers["gpu.streams.submit.calls"]["value"] == 0
    assert layers["backends.gemm.calls"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_trace_self_time_and_nesting(smoke, name):
    trace = json.loads((ROOT / smoke[0][(name, 1)]["trace_file"]).read_text())
    assert trace["dropped"] == 0
    spans = {s["id"]: s for s in trace["spans"]}
    assert spans
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)
    for s in spans.values():
        duration = s["end"] - s["start"]
        assert 0 <= s["self"] <= duration + 1e-9
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        covered, reach = 0.0, s["start"]
        for c in kids:
            assert s["start"] <= c["start"] <= c["end"] <= s["end"]
            covered += max(0.0, c["end"] - max(c["start"], reach))
            reach = max(reach, c["end"])
        assert s["self"] == pytest.approx(duration - covered, abs=1e-6)


def test_corrupted_q_and_perturbed_modeled_value_fail():
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS["fixed_rank_real"]
    ref = workloads.load_reference()["fixed_rank_real"]
    a = wl.setup(0)["a"]
    f = wl.op(a, 0)
    assert workloads.check_fixed_rank(a, f, ref) == []

    f.q = np.array(f.q)
    f.q[0, 0] += 1e-6
    assert workloads.check_fixed_rank(a, f, ref)

    g = wl.op(a, 1)
    g.seconds = float(np.nextafter(g.seconds, 1.0))
    assert workloads.check_fixed_rank(a, g, ref)

    sweep_ref = workloads.load_reference()["paper_sweep_symbolic"]
    sweep = workloads.WORKLOADS["paper_sweep_symbolic"]
    grid = workloads.paper_grid()
    results = sweep.one_pass(grid, list(grid), 0)
    assert workloads.check_sweep(results, sweep_ref) == []
    key = next(iter(results))
    phase = next(iter(results[key].breakdown))
    results[key].breakdown[phase] *= 1 + 1e-12
    assert workloads.check_sweep(results, sweep_ref)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fixed_rank_real"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    sys.path.insert(0, str(HERE))
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(base, base[::-1], 0.1, True)[0] == "no change"
    assert verdict(base, [v * 1.2 for v in base], 0.1, True)[0] == "regressed"
    assert verdict(base, [v * 0.9 for v in base], 0.1, True)[0] == "improved"
    assert verdict(base, [v * 0.8 for v in base], 0.1, False)[0] == \
        "regressed"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, 0.1, True)[0] == "unresolved"
