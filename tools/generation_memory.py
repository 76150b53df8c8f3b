#!/usr/bin/env python3
"""Wall time and peak memory of generating one Table 1 matrix.

Builds ``power`` (seed 0) at the given shape in this process and
prints, as a markdown table, the seconds generation took and

    ratio = (peak RSS - RSS after import) / matrix bytes

with both RSS figures read from ``/proc/self/status`` (Linux only).
Run it in a fresh interpreter: the peak counts from process start.
Exit 1 when the ratio exceeds ``--max-ratio``; an error while
generating exits non-zero with its traceback.

Usage::

    PYTHONPATH=src python tools/generation_memory.py
    PYTHONPATH=src python tools/generation_memory.py --m 20000 \\
        --max-ratio 3.0
"""

from __future__ import annotations

import argparse
import sys
import time


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=100_000)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--max-ratio", type=float, default=None)
    args = ap.parse_args(argv)

    from repro.matrices.synthetic import power_matrix

    base = _status_kib("VmRSS")
    t0 = time.perf_counter()
    a = power_matrix(args.m, args.n, seed=0)
    seconds = time.perf_counter() - t0
    peak = _status_kib("VmHWM")
    ratio = (peak - base) * 1024 / a.nbytes

    print(f"| matrix | seconds | matrix MiB | peak above import MiB "
          f"| ratio |\n|---|---|---|---|---|\n"
          f"| power {args.m}x{args.n} | {seconds:.2f} "
          f"| {a.nbytes / 2**20:.0f} | {(peak - base) / 1024:.0f} "
          f"| {ratio:.2f} |")
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"ratio {ratio:.2f} exceeds {args.max_ratio}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
