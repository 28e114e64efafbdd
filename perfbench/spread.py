#!/usr/bin/env python3
"""Recompute medians, quartiles and spreads from saved per-run results.

    python3 perfbench/spread.py [--trace 0|1] [workload ...]

Reads every ``perfbench/out/<workload>/seed*-trace<k>.json`` written by
``run.py`` and prints, per metric, the run count, median, first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (their
distance as a share of the median) and, for end-to-end metrics, that spread
as a share of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = spec["per_layer" if args.trace else "end_to_end"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for w in names:
        runs = [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted((OUT_DIR / w).glob(f"seed*-trace{args.trace}.json"))]
        if not runs:
            print(f"{w}: no results", file=sys.stderr)
            continue
        seeds = sorted(r["seed"] for r in runs)
        failed = sum(not r["correct"] for r in runs)
        print(f"== {w}: {len(runs)} runs, seeds {seeds}, {failed} not correct ==")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
        for e in entries:
            values = [r["values"][e["name"]] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("nan")
            share = f"{spread / e['bound']:7.2f}" if "bound" in e else ""
            print(f"  {e['name']:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
