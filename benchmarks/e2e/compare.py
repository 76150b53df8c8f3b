"""A/B gate over benchmark runs: parent commit vs change.

    python3 benchmarks/e2e/compare.py P1 C1 P2 C2 ...

Each file is the captured standard output of one ``run.py`` invocation
(one workload or all of them); files alternate parent, change, parent,
change, ... and each parent/change pair should be run back to back,
alternating which side goes first.  Bounds come from ``BENCHMARK.json``.

One row per (workload, end-to-end metric) with each side's median and
quartiles, and a verdict:

- ``improved``: at least 10 pairs, the change won at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
- ``unresolved``: a side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``no change``: anything else.

Exit status 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from stats import quartiles

__all__ = ["read_reports", "verdict", "main"]

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10


def read_reports(path: str) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}`` of the untraced reports in a
    captured ``run.py`` output."""
    found = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "workload" in doc and not doc.get("trace"):
            found[doc["workload"]] = {k: v["value"]
                                      for k, v in doc["metrics"].items()}
    return found


def verdict(parent: List[float], change: List[float], bound: float,
            lower_is_better: bool) -> Tuple[str, Dict]:
    sign = 1.0 if lower_is_better else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (cv - pv) < 0 for pv, cv in zip(parent, change))
    worse_by = sign * (c["median"] - p["median"]) / abs(p["median"])
    all_better = all(sign * (cv - pv) < 0 for pv in parent for cv in change)
    info = {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "worse_by": worse_by}
    if (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(parent)
            and worse_by < 0
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "improved", info
    if max(p["spread"], c["spread"]) > bound and not all_better:
        return "unresolved", info
    if worse_by > bound:
        return "regressed", info
    return "no change", info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Compare parent/change benchmark runs (see README.md).")
    ap.add_argument("files", nargs="+",
                    help="run.py outputs: parent, change, parent, ...")
    args = ap.parse_args(argv)
    if len(args.files) % 2:
        ap.error("give files in parent/change pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [read_reports(f) for f in args.files]
    pairs = list(zip(runs[0::2], runs[1::2]))
    print(f"{'workload':22s} {'metric':18s} {'parent median [q1, q3]':>30s}"
          f" {'change median [q1, q3]':>30s} {'wins':>6s} {'delta':>8s}"
          f"  verdict")
    failing = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        both = [(p[wl], c[wl]) for p, c in pairs if wl in p and wl in c]
        if not both:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [p[name] for p, _ in both]
            change = [c[name] for _, c in both]
            v, info = verdict(parent, change, m["bound"],
                              m["better"] == "lower")
            failing += v in ("regressed", "unresolved")
            p, c = info["parent"], info["change"]
            delta = (c["median"] - p["median"]) / abs(p["median"])
            print(f"{wl:22s} {name:18s} "
                  f"{p['median']:10.4g} [{p['q1']:8.4g}, {p['q3']:8.4g}]"
                  f" {c['median']:10.4g} [{c['q1']:8.4g}, {c['q3']:8.4g}]"
                  f" {info['wins']:2d}/{info['pairs']:<3d} {delta:+8.1%}"
                  f"  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
