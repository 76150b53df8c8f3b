"""Command-line front end: ``python -m repro.analysis`` /
``python -m repro.cli analyze``.

Exit codes (the CI contract, see :mod:`repro.analysis.findings`):

- ``0`` — clean, or every finding is covered by the baseline;
- ``1`` — at least one new finding;
- ``2`` — usage or configuration error (bad path, bad rule id,
  malformed baseline).

Output formats: ``text`` (one line per finding), ``json`` (findings +
baseline accounting), ``sarif`` (SARIF 2.1.0 for GitHub code
scanning).  Diagnostics that are not part of the machine-readable
payload (cache statistics) go to stderr so stdout stays byte-stable
for a given tree regardless of cache state or ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import StaticAnalysisError
from .baseline import (DEFAULT_BASELINE, apply_baseline, load_baseline,
                       update_baseline, write_baseline)
from .cache import DEFAULT_CACHE_DIR, AnalysisCache
from .engine import _resolve_rules, all_rules, run_analysis
from .findings import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS
from .sarif import render_sarif

__all__ = ["main", "build_parser"]


def _default_jobs() -> int:
    """``--jobs`` default: the REPRO_ANALYZE_JOBS env var, else 1."""
    raw = os.environ.get("REPRO_ANALYZE_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="AST-based invariant checker for the simulated-GPU "
                    "executor contract (rules RS101-RS125).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to scan "
                             "(default: src/repro)")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--jobs", metavar="N", type=int,
                        default=_default_jobs(),
                        help="analyze files in N worker processes "
                             "(default: $REPRO_ANALYZE_JOBS or 1; "
                             "findings order is identical either way)")
    parser.add_argument("--baseline", metavar="PATH",
                        default=DEFAULT_BASELINE,
                        help="baseline JSON of accepted findings "
                             f"(default: {DEFAULT_BASELINE}; silently "
                             "skipped when absent)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept the current findings: write them "
                             "to the baseline file and exit 0")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings, pruning entries that no longer "
                             "occur (prints what was dropped), and "
                             "exit 0")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=DEFAULT_CACHE_DIR,
                        help="incremental cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache (forces a "
                             "cold re-analysis of every file)")
    parser.add_argument("--stats", action="store_true",
                        help="print parse/cache statistics to stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and summaries, then "
                             "exit")
    parser.add_argument("--audit-costs", action="store_true",
                        help="cost audit: per-phase FLOPs an "
                             "instrumented symbolic run of the imported "
                             "repro package charges vs the Figure 5 "
                             "closed forms, at the fig15 and two "
                             "reference points (exit 1 on drift); it "
                             "measures the imported package and ignores "
                             "the positional paths")
    return parser


def _split_rules(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [r.strip() for r in spec.split(",") if r.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.audit_costs:
        from .audit import main as audit_main
        return audit_main()

    registry = all_rules()
    if args.list_rules:
        for rule, cls in registry.items():
            print(f"{rule}  {cls.summary}")
        return EXIT_CLEAN

    cache = None if args.no_cache else AnalysisCache(Path(args.cache_dir))
    try:
        select = _split_rules(args.select)
        ignore = _split_rules(args.ignore)
        wanted = _resolve_rules(registry, select, ignore)
        result = run_analysis(
            [Path(p) for p in args.paths],
            select=select, ignore=ignore,
            jobs=max(1, args.jobs), cache=cache)
        findings = result.findings

        baseline_path = Path(args.baseline)
        if args.write_baseline:
            write_baseline(baseline_path, findings)
            print(f"[wrote {len(findings)} finding(s) to {baseline_path}]")
            return EXIT_CLEAN
        if args.update_baseline:
            added, dropped, kept = update_baseline(baseline_path, findings)
            for fp in dropped:
                print(f"[dropped stale baseline entry {fp}]")
            print(f"[baseline {baseline_path}: {len(added)} added, "
                  f"{len(dropped)} dropped, {len(kept)} kept]")
            return EXIT_CLEAN

        suppressed, stale = 0, []
        if not args.no_baseline and baseline_path.is_file():
            base = load_baseline(baseline_path)
            findings, suppressed, stale = apply_baseline(findings, base)
    except StaticAnalysisError as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.stats:
        print(f"[repro-analyze stats: {result.stats.as_dict()}]",
              file=sys.stderr)

    if args.fmt == "sarif":
        ran = {rule: registry[rule] for rule in wanted}
        sys.stdout.write(render_sarif(findings, ran))
    elif args.fmt == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in findings],
            "baselined": suppressed,
            "stale_baseline_entries": stale,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        tail = [f"{len(findings)} finding(s)"]
        if suppressed:
            tail.append(f"{suppressed} baselined")
        if stale:
            tail.append(f"{len(stale)} stale baseline entr"
                        f"{'y' if len(stale) == 1 else 'ies'} "
                        "(regenerate with --write-baseline)")
        print(f"[repro-analyze: {', '.join(tail)}]")

    return EXIT_FINDINGS if findings else EXIT_CLEAN
