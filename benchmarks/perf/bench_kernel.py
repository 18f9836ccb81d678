#!/usr/bin/env python
"""Benchmark the simulation kernel and gate against the baseline.

Usage (from the repository root)::

    python benchmarks/perf/bench_kernel.py               # smoke points, print
    python benchmarks/perf/bench_kernel.py --check       # gate vs baseline
    python benchmarks/perf/bench_kernel.py --update      # rewrite baseline
    python benchmarks/perf/bench_kernel.py --full        # every point, print

``--update`` runs the full point set and rewrites
``benchmarks/perf/BENCH_kernel.json`` — commit the diff together with
whatever change moved the numbers.  ``--check`` (the CI perf-smoke
job) runs the smoke points and fails if normalized cycles/sec regresses
more than the tolerance (default 10%) on any of them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.kernel import (  # noqa: E402
    BASELINE_PATH,
    FULL_POINTS,
    SMOKE_POINTS,
    TOLERANCE,
    compare_reports,
    format_report,
    load_baseline,
    run_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="all figure points (default: the two smoke "
                             "points)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="fresh runs per point, best wall kept")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed normalized cycles/sec drop for "
                             "--check (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on a regression vs the "
                             "committed baseline")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed baseline from this "
                             "run (implies --full)")
    args = parser.parse_args(argv)

    points = FULL_POINTS if args.full or args.update else SMOKE_POINTS
    report = run_bench(points, repeats=args.repeats)
    print(format_report(report))

    if args.update:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nbaseline written: {BASELINE_PATH}")
        return 0
    if args.check:
        failures = compare_reports(load_baseline(), report,
                                   tolerance=args.tolerance,
                                   keys=[point.key for point in points])
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nperf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
