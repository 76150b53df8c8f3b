"""Command-line front end: ``python -m repro.analysis`` /
``python -m repro.cli analyze``.

Exit codes (the CI contract, see :mod:`repro.analysis.findings`):

- ``0`` — clean, or every finding is covered by the baseline;
- ``1`` — at least one new finding;
- ``2`` — usage or configuration error (bad path, bad rule id,
  malformed baseline).

Output formats: ``text`` (one line per finding), ``json`` (findings +
baseline accounting), ``sarif`` (SARIF 2.1.0 for GitHub code
scanning).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import StaticAnalysisError
from .baseline import (DEFAULT_BASELINE, apply_baseline, load_baseline,
                       update_baseline, write_baseline)
from .engine import _resolve_rules, all_rules, analyze_paths
from .findings import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS
from .sarif import render_sarif

__all__ = ["main", "build_parser"]


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

    try:
        select = _split_rules(args.select)
        ignore = _split_rules(args.ignore)
        wanted = _resolve_rules(registry, select, ignore)
        findings = analyze_paths([Path(p) for p in args.paths],
                                 select=select, ignore=ignore)

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
