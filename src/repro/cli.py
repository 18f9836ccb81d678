"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``   print the paper's Tables 1-3.
``run``      run one (workload, scheme) experiment and print metrics.
``compare``  run one workload under all four schemes, normalized.
``figures``  regenerate Figures 6-10 over the Table 3 workloads.
``sweep``    run a ready-made parameter sweep (TC size, LLC size, NVM
             write latency) over one (workload, scheme).
``crash``    crash-inject one experiment at several points and report
             recovery consistency.
``chaos``    crash injection × fault injection (imperfect NVM, lossy
             acks, TC bit errors) swept over workloads, schemes, and
             crash fractions, checked against the atomicity oracle.
``litmus``   persistency-model litmus engine: run a generated suite
             of small multi-core programs under each persistence
             scheme, crash at every cycle, and check each recovered
             NVM image against the program's legal persist set.
             ``--chaos`` adds a fault-composed subset;
             ``--minimize`` delta-debugs any violation down to a
             minimal counterexample (see docs/litmus.md).
``trace``    without ``--scheme``: generate a workload trace, print
             its statistics, and optionally dump it to a file.  With
             ``--scheme``: simulate the workload under that scheme
             with the cycle-domain tracer on, write a Chrome
             trace-event JSON (open in https://ui.perfetto.dev), and
             print the per-core stall-attribution breakdown.
``serve``    run the long-lived simulation service: clients POST JSON
             point specs and get cached-or-computed results back
             (see docs/service.md).
``submit``   submit one point spec to a running service and print the
             JSON response.
``cluster``  multi-node serving: ``cluster run`` boots a local N-node
             fleet behind a consistent-hash router; ``cluster chaos``
             kills/restarts nodes under live traffic and verifies zero
             failures + byte-identical payloads (see docs/cluster.md).
``workloads``  list registered workloads.

Grid-shaped commands (``sweep``, ``figures``, ``crash``, ``chaos``)
accept ``--jobs N`` to fan independent experiment points out over a
process pool and ``--cache-dir DIR`` to memoize finished points on
disk (``--no-cache`` bypasses a configured cache).  Parallel and
cached runs produce byte-identical output to ``--jobs 1`` uncached
ones; the engine prints a ``hits=``/``executed=`` summary to stderr.
They also accept ``--trace DIR`` to capture one Chrome trace per
experiment point (named by the point's cache key) and ``--epoch N`` to
sample occupancies/queue depths every N cycles into those traces.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .common.config import paper_machine_config, small_machine_config
from .common.types import SchemeName
from .sim.crash import crash_sweep
from .sim.report import (
    SCHEME_ORDER,
    figure6_ipc,
    figure7_throughput,
    figure8_llc_miss_rate,
    figure9_write_traffic,
    figure10_load_latency,
    format_figure,
    format_stall_breakdown,
    format_table1,
    format_table2,
    format_table3,
)
from .sim.runner import run_comparison, run_experiment, run_grid
from .sim.sweep import llc_size_sweep, nvm_write_latency_sweep, tc_size_sweep
from .workloads import PAPER_WORKLOADS, WORKLOADS, create_workload

# importing BROKEN_COMMIT loads repro.litmus.broken, whose import-time
# register_scheme() puts "broken_commit" into the scheme registry the
# choice lists below are generated from
from .litmus import BROKEN_COMMIT  # noqa: E402  (registration side effect)
from .persistence import scheme_names

#: every currently registered scheme name — enum members plus
#: register_scheme() extras; a newly registered scheme appears in all
#: CLI choice lists and error messages without manual edits
SCHEME_CHOICES = scheme_names()

#: litmus sweeps persistence schemes (optimal promises nothing, so
#: checking it is meaningless) plus registered extras such as the
#: intentionally broken reference
LITMUS_SCHEME_CHOICES = [name for name in scheme_names()
                         if name != SchemeName.OPTIMAL.value]


def package_version() -> str:
    """The installed distribution version, falling back to the
    in-tree ``__version__`` when running uninstalled (PYTHONPATH=src)."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - stdlib since 3.8
        pass
    from . import __version__
    return __version__

#: name → (ready-made sweep factory, knob value parser) for ``sweep``
READY_SWEEPS = {
    "tc_size": (tc_size_sweep, int),
    "llc_size": (llc_size_sweep, int),
    "nvm_write_latency": (nvm_write_latency_sweep, float),
}


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--operations", type=int, default=300,
                        help="benchmark operations per core (default 300)")
    parser.add_argument("--cores", type=int, default=4,
                        help="number of cores (default 4)")
    parser.add_argument("--seed", type=int, default=42)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent experiment "
                             "points (default 1 = in-process serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache; "
                             "already-computed points are skipped")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write --cache-dir")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="capture one Chrome trace per experiment point "
                             "into DIR, named by the point's cache key")
    parser.add_argument("--epoch", type=int, default=0,
                        help="sample occupancies/queue depths into the trace "
                             "every N cycles (0 = off)")


def _engine_from_args(args):
    from .sim.parallel import ExperimentEngine

    return ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir,
                            use_cache=not args.no_cache)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC 2017 persistent-memory-accelerator reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print the paper's Tables 1-3")
    sub.add_parser("workloads", help="list registered workloads")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("workload", choices=sorted(WORKLOADS))
    run_parser.add_argument("scheme", choices=SCHEME_CHOICES)
    _add_common_run_args(run_parser)
    run_parser.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")

    compare_parser = sub.add_parser("compare",
                                    help="one workload, all four schemes")
    compare_parser.add_argument("workload", choices=sorted(WORKLOADS))
    _add_common_run_args(compare_parser)

    figures_parser = sub.add_parser("figures",
                                    help="regenerate Figures 6-10")
    _add_common_run_args(figures_parser)
    figures_parser.add_argument(
        "--schemes", nargs="+",
        choices=[scheme.value for scheme in SchemeName],
        default=None,
        help="schemes to grid (default: the paper's sp txcache kiln "
             "optimal; optimal is always included as the "
             "normalization baseline)")
    _add_engine_args(figures_parser)
    _add_obs_args(figures_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a ready-made parameter sweep")
    sweep_parser.add_argument("sweep_name", metavar="SWEEP",
                              choices=sorted(READY_SWEEPS),
                              help=f"one of: {', '.join(sorted(READY_SWEEPS))}")
    sweep_parser.add_argument("workload", choices=sorted(WORKLOADS))
    sweep_parser.add_argument("scheme", choices=SCHEME_CHOICES)
    sweep_parser.add_argument("--values", nargs="+",
                              help="override the sweep's default knob values")
    _add_common_run_args(sweep_parser)
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    _add_engine_args(sweep_parser)
    _add_obs_args(sweep_parser)

    crash_parser = sub.add_parser("crash", help="crash-injection sweep")
    crash_parser.add_argument("workload", choices=sorted(WORKLOADS))
    crash_parser.add_argument("scheme", choices=SCHEME_CHOICES)
    crash_parser.add_argument("--operations", type=int, default=40)
    crash_parser.add_argument("--cores", type=int, default=1)
    crash_parser.add_argument("--seed", type=int, default=42)
    crash_parser.add_argument(
        "--fractions", type=float, nargs="+",
        default=[0.1, 0.25, 0.5, 0.75, 0.9],
        help="crash points as fractions of the uninterrupted run")
    _add_engine_args(crash_parser)
    _add_obs_args(crash_parser)

    chaos_parser = sub.add_parser(
        "chaos", help="fault-injection chaos sweep (crash x faults)")
    chaos_parser.add_argument("chaos_workloads", nargs="+",
                              metavar="WORKLOAD",
                              choices=sorted(WORKLOADS))
    chaos_parser.add_argument("--schemes", nargs="+",
                              choices=SCHEME_CHOICES, default=["txcache"])
    chaos_parser.add_argument("--write-fail", type=float, default=1e-3,
                              help="NVM write verification failure rate")
    chaos_parser.add_argument("--ack-loss", type=float, default=1e-3,
                              help="acknowledgment loss rate")
    chaos_parser.add_argument("--ack-delay", type=float, default=0.0,
                              help="acknowledgment delay rate")
    chaos_parser.add_argument("--ack-dup", type=float, default=0.0,
                              help="acknowledgment duplication rate")
    chaos_parser.add_argument("--bit-flip", type=float, default=1e-4,
                              help="per-bit TC read flip rate")
    chaos_parser.add_argument("--operations", type=int, default=40)
    chaos_parser.add_argument("--cores", type=int, default=1)
    chaos_parser.add_argument("--seed", type=int, default=42)
    chaos_parser.add_argument("--fault-seed", type=int, default=0)
    chaos_parser.add_argument(
        "--fractions", type=float, nargs="+",
        default=[0.1, 0.25, 0.5, 0.75, 0.9],
        help="crash points as fractions of the fault-free run")
    _add_engine_args(chaos_parser)
    _add_obs_args(chaos_parser)

    litmus_parser = sub.add_parser(
        "litmus",
        help="crash-interleaving litmus suite checked against the "
             "legal persist set")
    litmus_parser.add_argument("--programs", type=int, default=20,
                               help="suite size: the classic shapes "
                                    "plus seeded random programs "
                                    "(default 20)")
    litmus_parser.add_argument("--seed", type=int, default=0,
                               help="suite generation seed")
    litmus_parser.add_argument("--cores", type=int, default=2,
                               help="cores per random program "
                                    "(default 2)")
    litmus_parser.add_argument(
        "--schemes", nargs="+", choices=LITMUS_SCHEME_CHOICES,
        default=["sp", "kiln", "txcache"],
        help=f"schemes to sweep, any of: "
             f"{', '.join(LITMUS_SCHEME_CHOICES)} "
             f"({BROKEN_COMMIT} is the intentionally buggy reference "
             f"scheme; it should fail)")
    litmus_parser.add_argument("--check-every", type=int, default=1,
                               help="crash-check stride in cycles "
                                    "(default 1 = every cycle)")
    litmus_parser.add_argument("--chaos", action="store_true",
                               help="also run a fault-composed subset "
                                    "(imperfect NVM writes, lost acks, "
                                    "TC bit flips)")
    litmus_parser.add_argument("--fault-seed", type=int, default=0)
    litmus_parser.add_argument("--minimize", action="store_true",
                               help="delta-debug each violating "
                                    "(program, scheme) pair to a "
                                    "minimal counterexample")
    litmus_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    _add_engine_args(litmus_parser)

    trace_parser = sub.add_parser(
        "trace",
        help="dump a workload trace, or (with --scheme) capture a "
             "cycle-domain simulation trace")
    trace_parser.add_argument("workload", nargs="?", default=None,
                              choices=sorted(WORKLOADS))
    trace_parser.add_argument("--workload", dest="workload_opt",
                              choices=sorted(WORKLOADS), default=None,
                              help="workload (same as the positional)")
    trace_parser.add_argument("--scheme", choices=SCHEME_CHOICES,
                              default=None,
                              help="simulate under this scheme and write a "
                                   "Chrome trace (omit for the plain "
                                   "workload-trace dump)")
    trace_parser.add_argument("--cores", type=int, default=1,
                              help="cores for the simulation (default 1)")
    trace_parser.add_argument("--operations", type=int, default=100)
    trace_parser.add_argument("--seed", type=int, default=42)
    trace_parser.add_argument("--epoch", type=int, default=0,
                              help="sample occupancies/queue depths every "
                                   "N cycles (0 = off)")
    trace_parser.add_argument("--ring", type=int, default=1 << 18,
                              help="tracer ring capacity; oldest events are "
                                   "evicted beyond it")
    trace_parser.add_argument("--sample-every", type=int, default=1,
                              help="keep every Nth event per event name "
                                   "(counters are never decimated)")
    trace_parser.add_argument("--out",
                              help="output path: JSON-lines workload trace, "
                                   "or Chrome trace JSON with --scheme")
    trace_parser.add_argument("--merge-serve", action="append",
                              default=None, metavar="SPAN_TRACE_JSON",
                              help="merge these wall-clock span traces "
                                   "(a node's or router's /trace dump) "
                                   "into the cycle-domain trace, writing "
                                   "one combined Perfetto file "
                                   "(repeatable)")

    serve_parser = sub.add_parser(
        "serve", help="run the long-lived simulation service")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7341,
                              help="listen port (0 = ephemeral; "
                                   "default 7341)")
    serve_parser.add_argument("--jobs", type=int, default=2,
                              help="worker processes (default 2)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="shared on-disk result cache; served "
                                   "points interoperate with the batch "
                                   "engine's cache entries")
    serve_parser.add_argument("--max-queue", type=int, default=64,
                              help="distinct points allowed to wait for "
                                   "a worker before load-shedding "
                                   "(default 64)")
    serve_parser.add_argument("--max-inflight", type=int, default=None,
                              help="concurrent computations "
                                   "(default: --jobs)")
    serve_parser.add_argument("--cache-max-bytes", type=int, default=None,
                              help="cap the result cache; oldest entries "
                                   "are evicted past it")
    serve_parser.add_argument("--node-id", default=None,
                              help="cluster identity reported by /healthz "
                                   "and /stats (default: standalone)")
    serve_parser.add_argument("--port-file", default=None,
                              help="write the bound port to this file "
                                   "once listening (fleet harnesses)")
    serve_parser.add_argument("--log-json", action="store_true",
                              help="emit structured one-JSON-object-per-"
                                   "line logs (ts/level/node_id/"
                                   "request_id/event) instead of plain "
                                   "prints")

    cluster_parser = sub.add_parser(
        "cluster",
        help="multi-node serving: boot a local fleet + router, or "
             "chaos-test one")
    cluster_parser.add_argument("cluster_mode", choices=["run", "chaos"],
                                help="run: fleet + router until SIGTERM; "
                                     "chaos: kill/restart nodes under "
                                     "live traffic and verify")
    cluster_parser.add_argument("--nodes", type=int, default=3,
                                help="serve node processes (default 3)")
    cluster_parser.add_argument("--replication", type=int, default=2,
                                help="replicas per spec key (default 2)")
    cluster_parser.add_argument("--jobs", type=int, default=1,
                                help="worker processes per node "
                                     "(default 1)")
    cluster_parser.add_argument("--port", type=int, default=8341,
                                help="router listen port (0 = ephemeral; "
                                     "default 8341)")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--cache-dir", default=None,
                                help="root for per-node caches and logs "
                                     "(default: a temp dir)")
    cluster_parser.add_argument("--retries", type=int, default=4,
                                help="router failover retry rounds "
                                     "(default 4)")
    # chaos-mode knobs
    cluster_parser.add_argument("--points", type=int, default=9,
                                help="chaos grid size (default 9)")
    cluster_parser.add_argument("--operations", type=int, default=8,
                                help="operations per chaos point "
                                     "(default 8)")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="chaos plan seed")
    cluster_parser.add_argument("--hangs", action="store_true",
                                help="include a SIGSTOP/SIGCONT pair in "
                                     "the chaos plan")
    cluster_parser.add_argument("--no-verify", action="store_true",
                                help="skip the byte-identity check "
                                     "against the batch engine")

    submit_parser = sub.add_parser(
        "submit", help="submit one point spec to a running service")
    submit_parser.add_argument("submit_workload", nargs="?", default=None,
                               metavar="WORKLOAD",
                               choices=sorted(WORKLOADS))
    submit_parser.add_argument("submit_scheme", nargs="?", default=None,
                               metavar="SCHEME", choices=SCHEME_CHOICES)
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=7341)
    submit_parser.add_argument("--kind", default="experiment",
                               help="point kind (default experiment)")
    submit_parser.add_argument("--operations", type=int, default=None)
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument("--cores", type=int, default=None,
                               help="config num_cores")
    submit_parser.add_argument("--preset", choices=["small", "paper"],
                               default=None, help="config preset")
    submit_parser.add_argument("--deadline-ms", type=int, default=None)
    submit_parser.add_argument("--file", default=None,
                               help="read the full request JSON from this "
                                    "file ('-' = stdin) instead of flags")
    submit_parser.add_argument("--timeout", type=float, default=300.0,
                               help="client-side socket timeout seconds")
    submit_parser.add_argument("--retries", type=int, default=0,
                               help="resubmit through 503 sheds and "
                                    "connection failures up to N times, "
                                    "honoring Retry-After (default 0)")
    submit_parser.add_argument("--request-id", default=None,
                               help="correlation id sent as X-Request-Id "
                                    "(default: server-generated); shows "
                                    "up in spans, logs, and the response")

    mix_parser = sub.add_parser(
        "mix", help="heterogeneous mix: one workload per core")
    mix_parser.add_argument("mix_workloads", nargs="+",
                            metavar="WORKLOAD",
                            choices=sorted(WORKLOADS))
    mix_parser.add_argument("--scheme", choices=SCHEME_CHOICES,
                            default="txcache")
    mix_parser.add_argument("--operations", type=int, default=200)
    mix_parser.add_argument("--seed", type=int, default=42)

    validate_parser = sub.add_parser(
        "validate", help="sanity-check a workload/config combination")
    validate_parser.add_argument("workload", choices=sorted(WORKLOADS))
    _add_common_run_args(validate_parser)
    return parser


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict(), indent=2))
        return
    rows = [
        ("cycles", result.cycles),
        ("instructions executed", result.instructions_executed),
        ("IPC", f"{result.ipc:.3f}"),
        ("transactions", result.transactions),
        ("tx / 1k cycles", f"{result.throughput * 1e3:.3f}"),
        ("LLC miss rate", f"{result.llc_miss_rate:.3f}"),
        ("NVM lines written", f"{result.nvm_write_lines:.0f}"),
        ("persistent load latency", f"{result.persist_load_latency:.1f}"),
        ("TC-full stall events", f"{result.tc_full_stall_events:.0f}"),
    ]
    print(f"{result.workload} / {result.scheme.value}")
    for name, value in rows:
        print(f"  {name:<24}{value}")


def cmd_tables(_args) -> int:
    config = paper_machine_config()
    print(format_table1(config))
    print()
    print(format_table2(config))
    print()
    print(format_table3())
    return 0


def cmd_workloads(_args) -> int:
    for name, cls in sorted(WORKLOADS.items()):
        marker = "*" if name in PAPER_WORKLOADS else " "
        print(f" {marker} {name:<12} {cls.description}")
    print(" (* = paper Table 3 workload)")
    return 0


def cmd_run(args) -> int:
    result = run_experiment(args.workload, args.scheme,
                            num_cores=args.cores,
                            operations=args.operations, seed=args.seed)
    _print_result(result, args.json)
    return 0


def cmd_compare(args) -> int:
    config = small_machine_config(num_cores=args.cores)
    results = run_comparison(args.workload, config=config,
                             operations=args.operations, seed=args.seed)
    optimal = results[SchemeName.OPTIMAL]
    header = (f"{'scheme':<10}{'cycles':>10}{'rel IPC':>9}{'rel thr':>9}"
              f"{'NVM writes':>12}{'miss rate':>11}")
    print(f"{args.workload} ({args.cores} cores, "
          f"{args.operations} ops/core)")
    print(header)
    print("-" * len(header))
    for scheme in SCHEME_ORDER:
        result = results[scheme]
        print(f"{scheme.value:<10}{result.cycles:>10}"
              f"{result.ipc / optimal.ipc:>9.3f}"
              f"{result.throughput / optimal.throughput:>9.3f}"
              f"{result.nvm_write_lines:>12.0f}"
              f"{result.llc_miss_rate:>11.3f}")
    return 0


def cmd_figures(args) -> int:
    from .sim.runner import ALL_SCHEMES

    engine = _engine_from_args(args)
    if args.schemes:
        schemes = []
        for name in args.schemes:
            scheme = SchemeName.parse(name)
            if scheme not in schemes:
                schemes.append(scheme)
        if SchemeName.OPTIMAL not in schemes:
            # every figure normalizes to Optimal, so the baseline rides
            # along even when not asked for (its column still renders)
            schemes.append(SchemeName.OPTIMAL)
    else:
        schemes = list(ALL_SCHEMES)
    config = small_machine_config(num_cores=args.cores)
    print(f"running {2 * len(PAPER_WORKLOADS) * len(schemes)} experiment "
          f"points (jobs={engine.jobs})...", file=sys.stderr)
    grid, pressure_grid = [
        run_grid(PAPER_WORKLOADS, schemes, grid_config, engine=engine,
                 operations=args.operations, seed=args.seed,
                 trace_dir=args.trace, trace_epoch=args.epoch)
        for grid_config in (config, config.scaled_llc(128 * 1024))]
    print(engine.summary(), file=sys.stderr)
    for title, figure, source in (
            ("Figure 6: IPC", figure6_ipc, grid),
            ("Figure 7: Throughput", figure7_throughput, grid),
            ("Figure 8: LLC miss rate", figure8_llc_miss_rate, pressure_grid),
            ("Figure 9: NVM write traffic", figure9_write_traffic, grid),
            ("Figure 10: Persistent load latency", figure10_load_latency,
             grid)):
        print(format_figure(f"{title}, normalized to Optimal",
                            figure(source), schemes=schemes))
        print()
    print(format_stall_breakdown(grid, schemes=schemes))
    if args.trace:
        print(f"per-point traces in {args.trace}/", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    factory, parse_value = READY_SWEEPS[args.sweep_name]
    sweep = (factory(tuple(parse_value(v) for v in args.values))
             if args.values else factory())
    engine = _engine_from_args(args)
    config = small_machine_config(num_cores=args.cores)
    try:
        outcome = sweep.run(args.workload, args.scheme, base_config=config,
                            operations=args.operations, seed=args.seed,
                            engine=engine, trace_dir=args.trace,
                            trace_epoch=args.epoch)
    except ValueError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2
    print(outcome.to_json() if args.json else outcome.format())
    print(engine.summary(), file=sys.stderr)
    return 0


def cmd_crash(args) -> int:
    engine = _engine_from_args(args)
    reports = crash_sweep(args.workload, args.scheme,
                          fractions=args.fractions,
                          operations=args.operations,
                          num_cores=args.cores, seed=args.seed,
                          engine=engine, trace_dir=args.trace,
                          trace_epoch=args.epoch)
    print(engine.summary(), file=sys.stderr)
    failures = 0
    for report in reports:
        status = "CONSISTENT" if report.consistent else "TORN"
        print(f"crash @ {report.crash_cycle:>8} "
              f"({report.crash_cycle / report.total_cycles:4.0%}): "
              f"{len(report.committed):>4} tx durable, "
              f"{report.recovered_lines:>5} lines -> {status}")
        for violation in report.violations[:3]:
            print(f"    {violation}")
        failures += not report.consistent
    if failures and SchemeName.parse(args.scheme) is not SchemeName.OPTIMAL:
        print(f"{failures} inconsistent crash points!")
        return 1
    return 0


def cmd_chaos(args) -> int:
    from .common.config import FaultConfig
    from .sim.chaos import chaos_sweep

    try:
        fault_config = FaultConfig(
            seed=args.fault_seed,
            nvm_write_fail_rate=args.write_fail,
            ack_loss_rate=args.ack_loss,
            ack_delay_rate=args.ack_delay,
            ack_duplicate_rate=args.ack_dup,
            tc_bit_flip_rate=args.bit_flip,
        )
    except ValueError as error:
        print(f"repro chaos: error: {error}", file=sys.stderr)
        return 2
    engine = _engine_from_args(args)
    report = chaos_sweep(
        args.chaos_workloads, schemes=args.schemes,
        fault_config=fault_config, fractions=args.fractions,
        num_cores=args.cores, operations=args.operations, seed=args.seed,
        engine=engine, trace_dir=args.trace, trace_epoch=args.epoch)
    print(engine.summary(), file=sys.stderr)
    print(report.format())
    torn = report.total_runs - report.survived
    # Optimal guarantees nothing, so its torn runs are expected; any
    # persistence scheme tearing under chaos is a real failure.
    real_failures = sum(
        not run.consistent for run in report.runs
        if run.scheme is not SchemeName.OPTIMAL)
    if real_failures:
        print(f"{real_failures} atomicity violations under chaos!")
        return 1
    if torn:
        print(f"({torn} torn runs from the optimal scheme — expected)")
    return 0


def cmd_litmus(args) -> int:
    from .common.config import FaultConfig
    from .litmus import default_suite, minimize_violation, run_litmus_matrix

    try:
        programs = default_suite(args.seed, count=args.programs,
                                 cores=args.cores)
    except ValueError as error:
        print(f"repro litmus: error: {error}", file=sys.stderr)
        return 2
    engine = _engine_from_args(args)
    report = run_litmus_matrix(programs, args.schemes,
                               check_every=args.check_every,
                               engine=engine)
    reports = {"matrix": report}
    if args.chaos:
        fault_config = FaultConfig(seed=args.fault_seed,
                                   nvm_write_fail_rate=1e-3,
                                   ack_loss_rate=1e-3,
                                   tc_bit_flip_rate=1e-4)
        subset = programs[:min(5, len(programs))]
        reports["chaos"] = run_litmus_matrix(
            subset, args.schemes, fault_config=fault_config,
            check_every=args.check_every, engine=engine)
    print(engine.summary(), file=sys.stderr)

    by_name = {program.name: program for program in programs}
    violating_pairs = []
    for label, matrix in reports.items():
        for result in matrix.results:
            if not result.consistent and label == "matrix":
                violating_pairs.append(
                    (by_name[result.program], result.scheme))

    if args.json:
        payload = {label: [r.to_dict() for r in matrix.results]
                   for label, matrix in reports.items()}
    for label, matrix in reports.items():
        if args.json:
            continue
        if label == "chaos":
            print()
            print("fault-composed subset:")
        print(matrix.format())

    minimized = {}
    if args.minimize:
        for program, scheme in violating_pairs:
            small = minimize_violation(program, scheme,
                                       check_every=args.check_every)
            minimized[(program.name, scheme)] = small
            if not args.json:
                print()
                print(f"minimized {program.name}/{scheme} "
                      f"to {small.op_count} ops:")
                print(small.format())
    if args.json:
        payload["minimized"] = {
            f"{name}/{scheme}": small.to_dict()
            for (name, scheme), small in minimized.items()}
        print(json.dumps(payload, indent=2))

    failures = sum(not result.consistent
                   for matrix in reports.values()
                   for result in matrix.results)
    if failures:
        print(f"{failures} litmus runs violated the legal persist set!",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    workload_name = args.workload_opt or args.workload
    if workload_name is None:
        print("repro trace: error: a workload is required "
              "(positional or --workload)", file=sys.stderr)
        return 2
    if args.scheme is not None:
        return _cmd_trace_simulation(args, workload_name)
    workload = create_workload(workload_name, seed=args.seed)
    trace = workload.generate(args.operations)
    print(f"trace: {trace.name}")
    print(f"  ops:               {len(trace)}")
    print(f"  instructions:      {trace.instructions}")
    print(f"  transactions:      {trace.transactions}")
    print(f"  persistent stores: {trace.persistent_stores}")
    if args.out:
        with open(args.out, "w") as fp:
            trace.dump(fp)
        print(f"  written to {args.out}")
    return 0


def _cmd_trace_simulation(args, workload_name: str) -> int:
    """``repro trace --workload W --scheme S``: run one experiment with
    the tracer on, write Chrome trace JSON, print the stall breakdown.

    Exits nonzero if any core's per-kind stall attribution fails to sum
    to its measured total stall cycles — that invariant holding is what
    makes the breakdown trustworthy.
    """
    from .obs import (Observability, StallReport, merge_chrome_traces,
                      validate_chrome_trace)

    obs = Observability(epoch=args.epoch, ring_capacity=args.ring,
                        sample_every=args.sample_every)
    result = run_experiment(workload_name, args.scheme,
                            num_cores=args.cores,
                            operations=args.operations, seed=args.seed,
                            obs=obs)
    out = args.out or f"{workload_name}_{args.scheme}.trace.json"
    merge_paths = getattr(args, "merge_serve", None) or []
    if merge_paths:
        # fold wall-clock serve/router span traces (the /trace dumps)
        # into the cycle-domain trace: one Perfetto file, one track
        # group per process
        serve_traces = []
        for path in merge_paths:
            try:
                with open(path) as fp:
                    serve_traces.append(json.load(fp))
            except (OSError, ValueError) as error:
                print(f"repro trace: cannot read span trace {path}: "
                      f"{error}", file=sys.stderr)
                return 2
        merged = merge_chrome_traces(obs.tracer.chrome_trace(),
                                     *serve_traces)
        problems = validate_chrome_trace(merged)
        if problems:
            for problem in problems:
                print(f"repro trace: merged trace invalid: {problem}",
                      file=sys.stderr)
            return 1
        with open(out, "w") as fp:
            json.dump(merged, fp, separators=(",", ":"))
            fp.write("\n")
        print(f"merged {len(serve_traces)} span trace(s) into {out}")
    else:
        obs.write(out)
    tracer = obs.tracer
    print(f"trace: {workload_name}/{args.scheme} — {result.cycles} cycles, "
          f"{result.instructions_executed} instructions")
    print(f"  events:  {len(tracer.events())} kept of {tracer.emitted} "
          f"emitted ({tracer.dropped} evicted, "
          f"{tracer.decimated} decimated)")
    print(f"  written to {out} (open in https://ui.perfetto.dev)")
    print()
    report = StallReport.from_result(result)
    print(report.format())
    errors = report.attribution_errors()
    if errors:
        for error in errors:
            print(f"repro trace: stall attribution violated: {error}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    from .serve import serve_forever

    def announce(bound_port: int) -> None:
        node = f", node_id={args.node_id}" if args.node_id else ""
        print(f"repro serve: listening on {args.host}:{bound_port} "
              f"(jobs={args.jobs}, max_queue={args.max_queue}, "
              f"cache={args.cache_dir or 'off'}{node})",
              file=sys.stderr, flush=True)
        if args.port_file:
            with open(args.port_file, "w") as fp:
                fp.write(str(bound_port))

    return serve_forever(host=args.host, port=args.port, jobs=args.jobs,
                         cache_dir=args.cache_dir,
                         max_queue=args.max_queue,
                         max_inflight=args.max_inflight,
                         cache_max_bytes=args.cache_max_bytes,
                         node_id=args.node_id,
                         announce=announce,
                         log_json=args.log_json)


def cmd_cluster(args) -> int:
    import tempfile

    from .cluster import LocalFleet, RouterService, default_grid, run_chaos

    if args.nodes < 1:
        print("repro cluster: error: --nodes must be >= 1",
              file=sys.stderr)
        return 2
    if not 1 <= args.replication <= args.nodes:
        print("repro cluster: error: --replication must be between 1 "
              "and --nodes", file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-cluster-")

    if args.cluster_mode == "chaos":
        specs = default_grid(points=args.points,
                             operations=args.operations)
        report = run_chaos(
            specs, cache_root=cache_dir, nodes=args.nodes,
            replication=args.replication, jobs=args.jobs,
            seed=args.seed, hangs=args.hangs,
            client_retries=args.retries + 2,
            verify=not args.no_verify,
            progress=lambda message: print(
                f"repro cluster: {message}", file=sys.stderr, flush=True))
        print(report.format())
        return 0 if report.ok else 1

    # run: boot the fleet, put a router in front, serve until SIGTERM
    import asyncio

    fleet = LocalFleet(nodes=args.nodes, jobs=args.jobs,
                       cache_root=cache_dir, host=args.host)
    print(f"repro cluster: booting {args.nodes} node(s) "
          f"(cache root {cache_dir})...", file=sys.stderr, flush=True)
    try:
        fleet.start()
        for node in fleet.infos():
            print(f"repro cluster:   {node.node_id} on {node.address}",
                  file=sys.stderr, flush=True)
        router = RouterService(
            fleet.infos(), replication=args.replication,
            host=args.host, port=args.port, retries=args.retries,
            ready_callback=lambda port: print(
                f"repro cluster: router on {args.host}:{port} "
                f"(replication={args.replication})",
                file=sys.stderr, flush=True))
        asyncio.run(router.run())
    finally:
        print("repro cluster: draining nodes...", file=sys.stderr,
              flush=True)
        fleet.shutdown()
    return 0


def _submit_request_from_args(args) -> dict:
    if args.file is not None:
        raw = (sys.stdin.read() if args.file == "-"
               else open(args.file).read())
        return json.loads(raw)
    if args.submit_workload is None or args.submit_scheme is None:
        raise ValueError("submit needs WORKLOAD and SCHEME "
                         "(or --file REQUEST.json)")
    request: dict = {"kind": args.kind,
                     "workload": args.submit_workload,
                     "scheme": args.submit_scheme}
    for name, value in (("operations", args.operations),
                        ("seed", args.seed),
                        ("deadline_ms", args.deadline_ms)):
        if value is not None:
            request[name] = value
    config = {}
    if args.cores is not None:
        config["num_cores"] = args.cores
    if args.preset is not None:
        config["preset"] = args.preset
    if config:
        request["config"] = config
    return request


def cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError

    try:
        request = _submit_request_from_args(args)
    except (ValueError, OSError) as error:
        print(f"repro submit: error: {error}", file=sys.stderr)
        return 2
    client = ServeClient(host=args.host, port=args.port,
                         timeout=args.timeout)
    try:
        response = client.submit(request, retries=args.retries,
                                 request_id=args.request_id)
    except ServeError as error:
        print(f"repro submit: {error}", file=sys.stderr)
        if error.retry_after:
            print(f"repro submit: retry after {error.retry_after}s",
                  file=sys.stderr)
        return 1
    except OSError as error:
        print(f"repro submit: connection failed: {error}",
              file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2))
    return 0


def cmd_mix(args) -> int:
    from .sim.runner import collect_result, make_mixed_traces
    from .sim.system import System

    config = small_machine_config(num_cores=len(args.mix_workloads))
    traces = make_mixed_traces(args.mix_workloads, args.operations,
                               seed=args.seed)
    system = System(config, args.scheme)
    system.load_traces(traces)
    system.run()
    result = collect_result(system, workload="+".join(args.mix_workloads))
    _print_result(result, as_json=False)
    for core, trace in zip(system.cores, traces):
        print(f"  core {core.core_id} ({trace.name}): "
              f"{core.committed_transactions} tx in {core.cycle} cycles")
    return 0


def cmd_validate(args) -> int:
    from .sim.runner import make_traces
    from .sim.validate import validate_setup

    config = small_machine_config(num_cores=args.cores)
    traces = make_traces(args.workload, args.cores, args.operations,
                         seed=args.seed)
    report = validate_setup(config, traces)
    print(report.format())
    return 0 if report.ok else 1


COMMANDS = {
    "tables": cmd_tables,
    "workloads": cmd_workloads,
    "run": cmd_run,
    "compare": cmd_compare,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
    "crash": cmd_crash,
    "chaos": cmd_chaos,
    "litmus": cmd_litmus,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "cluster": cmd_cluster,
    "mix": cmd_mix,
    "validate": cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
