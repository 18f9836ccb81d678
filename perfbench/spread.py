"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median).

    python3 perfbench/spread.py --workload litmus --seeds 1 2 3 4 5

Run from the root of a checkout.  A metric is steady enough when its
spread stays below a third of its bound in ``BENCHMARK.json``
(``setup_s`` is exempt from the spread test, not from the median one).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    bad = 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=HERE.parent, check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        bad += not result["correct"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {bad} incorrect")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"  {metric['name']:<18} median {statistics.median(series):.6g}"
              f"  spread {spread:.4f}  bound {metric['bound']}{flag}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
