"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-nvm --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the simulator is imported from
``src/``).  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics from an
instrumented run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``perfbench-info``, carries sample counts, the workload's own
metric names (``sim_cycles_per_s``, ``hit_p90_ms``, ...), ``failed_frac``
and the environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("grid-nvm", "grid-cache", "litmus", "serve")
#: the seed the documented figures use, and one kept out of tuning
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: settings that would silently change what is measured
PINNED_ENV = ("REPRO_SIM_KERNEL", "REPRO_NO_NUMPY")
SETUP_REPEATS = 9
#: what a fresh interpreter must import before the workload can start
SETUP_IMPORTS = {
    "grid-nvm": "import repro.sim; repro.sim.ExperimentEngine(jobs=1)",
    "grid-cache": "import repro.sim; repro.sim.ExperimentEngine(jobs=1)",
    "litmus": "import repro.litmus.runner",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    from repro.bench.kernel import calibrate
    from repro.common.event import default_kernel

    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {"kernel": default_kernel(), "numpy": has_numpy,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "calibrate_loops_per_s": calibrate()}


def import_setup_seconds(workload: str, host) -> list:
    """Fresh-interpreter import times of the workload's entry points."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS[workload]],
                       cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - begin)
    return times


def run(args, host) -> dict:
    import grid
    import litmus_wl
    import serve_wl

    mark = host.mark()
    if args.workload == "serve":
        boots = serve_wl.BOOTS if args.trace == 0 else 1
        cluster, warm, refs, boot_times, problems = serve_wl.setup(
            WORK, args.seed, host, boots=boots)
        setup_slowdown = host.slowdown_since(mark)
        try:
            if args.trace:
                out = serve_wl.traced(cluster, warm, refs, args.seed)
            else:
                out = serve_wl.measure(cluster, warm, refs, args.seed,
                                       args.seconds, host)
        finally:
            cluster.stop()
        out["problems"] = problems + out["problems"]
        out["failed"] += len(problems)
        out["attempted"] += len(warm)
        setup_times = boot_times
    else:
        setup_times = import_setup_seconds(args.workload, host)
        setup_slowdown = host.slowdown_since(mark)
        if args.workload == "litmus":
            out = (litmus_wl.traced(args.seed) if args.trace
                   else litmus_wl.measure(args.seed, args.seconds, host))
        else:
            store = grid.DigestStore(WORK / "digests.json")
            out = (grid.traced(args.workload, args.seed, store) if args.trace
                   else grid.measure(args.workload, args.seed, args.seconds,
                                     store, host))
            store.save()
    out["setup_times"] = setup_times
    # set-up is normalized by the samples taken between its repeats
    out["setup_s"] = statistics.median(setup_times) / setup_slowdown
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no simulator sources at {ROOT / 'src' / 'repro'}; "
                    "run from the root of a checkout")
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        return fail(f"unset {', '.join(pinned)}: the benchmark measures "
                    "the environment defaults users get")
    # a terminated run still stops the cluster it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from benchlib import (HostSpeed, check_names, failed_frac, peak_rss_mb,
                          result_line)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_names(spec["end_to_end"] + spec["per_layer"])
    if problems:
        return fail(f"BENCHMARK.json: {'; '.join(problems)}")
    env = environment()
    host = HostSpeed()
    out = run(args, host)

    if args.trace:
        specs = spec["per_layer"]
        # a layer off this workload's path reads 0
        values = {s["name"]: 0.0 for s in specs}
        values.update(out["layers"])
    else:
        specs = spec["end_to_end"]
        values = dict(out["values"])
        values["setup_s"] = out["setup_s"]
        # the processes under test: this one, where the simulator runs,
        # or for serve the finished cluster (node, pool worker, router)
        values["peak_rss_mb"] = peak_rss_mb(children=args.workload == "serve")
    result = result_line(specs, values, out["attempted"], out["failed"],
                         correct=not out["problems"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed_frac(out["attempted"], out["failed"]),
        "measured_setup_times_s": out["setup_times"],
        "host_slowdown": host.slowdown if host.samples else None,
        "calibration_samples": len(host.samples),
        "problems": out["problems"][:20],
        "environment": env,
        **out.get("info", {}),
    }
    unknown = sorted(set(values) - {s["name"] for s in specs})
    if unknown:
        info["unreported"] = {name: values[name] for name in unknown}
    print("perfbench-info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
