"""``grid-nvm`` and ``grid-cache``: cold figure grids, one point at a
time through ``ExperimentEngine(jobs=1)`` with no result cache.

``grid-nvm`` is the five paper workloads under the NVM-logging schemes
(``sp`` and the three software transactions) on the 2-core small
machine, where the memory controllers and the event kernel do most of
the work.  ``grid-cache`` is the same workloads under ``txcache``,
``kiln`` and ``optimal`` in both LLC regimes of the figures (32 KB and
the 128 KB reuse config of Figs. 8/10), where the cache hierarchy, the
cores and the transaction cache carry the loop.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.common.config import MachineConfig, small_machine_config
from repro.sim import (ExperimentEngine, ExperimentPoint, System,
                       collect_result, make_traces)
from repro.workloads import PAPER_WORKLOADS

from benchlib import HostSpeed, SpanLog, WorkTimer, latency_summary
from census import PACKAGES, Census, memory_census

CORES = 2
#: per-core operations; each workload's set-up phase (tree builds,
#: table fills) dominates a point's cycles at any small count, so four
#: keeps a grid-nvm pass near 21 s at reference host speed
OPERATIONS = 4
PRESSURE_LLC_BYTES = 128 * 1024
#: seconds one pass takes at reference host speed (see benchlib.HostSpeed)
NOMINAL_PASS_S = {"grid-nvm": 21.0, "grid-cache": 5.0}
#: processes for the profiled pass of a traced run
PROFILE_WORKERS = 2
NVM_SCHEMES = ("sp", "undo_log", "redo_log", "hybrid_dram")
CACHE_SCHEMES = ("txcache", "kiln", "optimal")

#: the census spot point and the counts measured for it with cProfile
#: on the default kernel before this benchmark existed
SPOT = ("sps", "sp", 30, 42)
SPOT_EVENTS = 212_808
SPOT_POLLS = 190_881

#: settings of tests/data/golden_figures.json; the two figures rendered
#: from the reuse regime use the 128 KB LLC, every other pair the 32 KB
GOLDEN_OPERATIONS = 60
GOLDEN_SEED = 42
GOLDEN_PRESSURE = ("fig8_llc_miss_rate", "fig10_load_latency")
GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "tests" / "data" / "golden_figures.json")


def base_config() -> MachineConfig:
    return small_machine_config(num_cores=CORES)


def regimes(workload: str) -> List[Tuple[MachineConfig, Tuple[str, ...]]]:
    base = base_config()
    if workload == "grid-nvm":
        return [(base, NVM_SCHEMES)]
    return [(base, CACHE_SCHEMES),
            (base.scaled_llc(PRESSURE_LLC_BYTES), CACHE_SCHEMES)]


def grid_points(workload: str, seed: int) -> List[ExperimentPoint]:
    """One pass: workload-major so the schemes of a workload share its
    traces, as the figure pipeline does."""
    return [ExperimentPoint(name, scheme, config, operations=OPERATIONS,
                            seed=seed)
            for config, schemes in regimes(workload)
            for name in PAPER_WORKLOADS
            for scheme in schemes]


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


class DigestStore:
    """Point key -> payload digest, kept across runs in one checkout so
    a point simulated twice must reproduce its bytes exactly."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.seen: Dict[str, str] = {}

    def check(self, key: str, value: str) -> bool:
        """Record ``value``; False when it contradicts an earlier one."""
        earlier = self.seen.get(key, self.known.get(key))
        self.seen[key] = value
        return earlier is None or earlier == value

    def save(self) -> None:
        merged = dict(self.known)
        merged.update(self.seen)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        tmp.replace(self.path)


def golden_pairs(workload: str) -> List[Tuple[str, ExperimentPoint]]:
    """The golden-figure pairs whose scheme belongs to this grid, at the
    golden file's own settings."""
    golden = json.loads(GOLDEN_PATH.read_text())
    base = base_config()
    pairs = []
    for name in sorted(golden):
        scheme = golden[name]["scheme"]
        if (scheme in NVM_SCHEMES) != (workload == "grid-nvm"):
            continue
        config = (base.scaled_llc(PRESSURE_LLC_BYTES)
                  if name in GOLDEN_PRESSURE else base)
        pairs.append((name, ExperimentPoint(
            golden[name]["workload"], scheme, config,
            operations=GOLDEN_OPERATIONS, seed=GOLDEN_SEED)))
    return pairs


def check_golden(workload: str, host: HostSpeed) -> Tuple[int, List[str]]:
    """Simulate this grid's golden pairs; returns (checked, mismatches)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    engine = ExperimentEngine(jobs=1)
    bad = []
    pairs = golden_pairs(workload)
    for name, point in pairs:
        actual = json.loads(json.dumps(
            engine.run([point])[0].to_dict(include_raw=True)))
        if actual != golden[name]:
            fields = sorted(k for k in set(actual) | set(golden[name])
                            if actual.get(k) != golden[name].get(k))
            bad.append(f"{name}: {fields[:5]}")
        host.tick()
    return len(pairs), bad


# ---------------------------------------------------------------------------
# untraced: the end-to-end numbers
# ---------------------------------------------------------------------------
def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at reference host speed.  The
    count depends on ``seconds`` alone, so every run of a workload does
    the same work however fast the host is."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure(workload: str, seed: int, seconds: float, store: DigestStore,
            host: HostSpeed) -> Dict[str, object]:
    """:func:`passes_for` passes, a fresh seed each, sampling host speed
    between points."""
    engine = ExperimentEngine(jobs=1)
    timer = WorkTimer(host)
    latencies: List[float] = []
    cycles = 0
    attempted = failed = 0
    problems: List[str] = []
    passes = passes_for(workload, seconds)
    for index in range(passes):
        for point in grid_points(workload, pass_seed(seed, index)):
            attempted += 1
            begin = time.perf_counter()
            try:
                result = engine.run([point])[0]
            except Exception as error:  # noqa: BLE001 - counted, reported
                failed += 1
                problems.append(f"{point.workload}/{point.scheme}: {error!r}")
                continue
            latencies.append(time.perf_counter() - begin)
            cycles += result.cycles
            if not store.check(point.key,
                               digest(result.to_dict(include_raw=True))):
                failed += 1
                problems.append(f"{point.workload}/{point.scheme} seed "
                                f"{point.seed}: payload digest changed")
            timer.add(latencies[-1])
    busy = timer.reference_s
    checked, bad = check_golden(workload, host)
    attempted += checked
    failed += len(bad)
    problems.extend(f"golden {line}" for line in bad)
    rate = cycles / busy if busy else 0.0
    mean_ms = busy / len(latencies) * 1000.0 if latencies else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "values": {"throughput_per_s": rate, "latency_ms": mean_ms},
        "info": {"sim_cycles_per_s": rate,
                 "measured_sim_cycles_per_s": (cycles / timer.measured_s
                                               if latencies else 0.0),
                 "passes": passes, "points": len(latencies),
                 "sim_cycles": cycles, "busy_s": timer.measured_s,
                 "measured_point_latency": (latency_summary(latencies)
                                            if latencies else {}),
                 "golden_pairs_checked": checked},
    }


# ---------------------------------------------------------------------------
# traced: the per-layer numbers
# ---------------------------------------------------------------------------
def _run_point(point: ExperimentPoint, spans: SpanLog,
               census: Optional[Census] = None
               ) -> Tuple[Dict[str, object], int]:
    """``run_experiment`` + serialization, one span per layer call."""
    with spans.span("point"):
        with spans.span("workloads.tracegen"):
            traces = make_traces(point.workload, point.config.num_cores,
                                 point.operations, seed=point.seed)
        with spans.span("sim.build"):
            system = System(point.config, point.scheme)
        with spans.span("persistence.prepare"):
            system.load_traces(traces)
        with spans.span("sim.run"):
            if census is None:
                system.run()
            else:
                with census:
                    system.run()
        if not system.done:
            raise RuntimeError(f"{point.workload}/{point.scheme} did not "
                               "finish")
        with spans.span("sim.collect"):
            payload = collect_result(
                system, workload=point.workload).to_dict(include_raw=True)
            json.dumps(payload)
    return payload, system.events_executed


def _profile_point(point: ExperimentPoint) -> Dict[str, object]:
    """One point with the profiler on inside ``System.run`` (a pool task)."""
    census = Census()
    begin = time.perf_counter()
    payload, events = _run_point(point, SpanLog(), census)
    return {"digest": digest(payload), "events": events,
            "self_s": census.self_seconds(), **memory_census(census),
            "wall": time.perf_counter() - begin}


def traced(workload: str, seed: int,
           store: DigestStore) -> Dict[str, object]:
    """A plain pass that records spans only, then the same points with
    the profiler on inside ``System.run``.  Timings come from the plain
    pass, self time and exact call counts from the profiled one, which
    runs as one task per point on :data:`PROFILE_WORKERS` processes so
    the profiler's fourfold slowdown fits the run's time limit."""
    points = grid_points(workload, pass_seed(seed, 0))
    spans = SpanLog()
    events = cycles = llc = stalls = 0
    attempted = failed = 0
    problems: List[str] = []
    digests = {}
    begin = time.perf_counter()
    for point in points:
        attempted += 1
        payload, executed = _run_point(point, spans)
        digests[point.key] = digest(payload)
        if not store.check(point.key, digests[point.key]):
            failed += 1
            problems.append(f"{point.workload}/{point.scheme}: digest")
        events += executed
        cycles += payload["cycles"]
        llc += payload["llc_accesses"]
        stalls += payload["tc_full_stall_events"]
    plain_wall = time.perf_counter() - begin

    tasks = list(points)
    if workload == "grid-nvm":
        tasks.append(spot_point())
    # fork, not spawn: spawn starts a resource-tracker process that
    # outlives the pool and this run; forked workers are all joined
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=PROFILE_WORKERS,
                             mp_context=context) as pool:
        profiled = [f.result() for f in
                    [pool.submit(_profile_point, task) for task in tasks]]
    spot = profiled.pop() if workload == "grid-nvm" else None
    for point, result in zip(points, profiled):
        if result["digest"] != digests[point.key]:
            failed += 1
            problems.append(f"{point.workload}/{point.scheme}: profiled "
                            "run changed the payload")
    polls = sum(r["polls"] for r in profiled)
    serviced = sum(r["serviced"] for r in profiled)
    self_s: Dict[str, float] = {}
    for result in profiled:
        for package, seconds in result["self_s"].items():
            self_s[package] = self_s.get(package, 0.0) + seconds
    profiled_wall = sum(r["wall"] for r in profiled)

    run_s = spans.total("sim.run")
    layers = {
        "workloads.tracegen_s": spans.total("workloads.tracegen"),
        "persistence.prepare_s": spans.total("persistence.prepare"),
        "sim.build_s": spans.total("sim.build"),
        "sim.run_s": run_s,
        "sim.collect_s": spans.total("sim.collect"),
        "sim.events": events,
        "sim.cycles": cycles,
        "sim.ns_per_event": run_s / events * 1e9 if events else 0.0,
        "memory.polls": polls,
        "memory.useful_poll_ratio": serviced / polls if polls else 0.0,
        "evloop.poll_event_share": polls / events if events else 0.0,
        "cache.llc_accesses": llc,
        "core.tc_full_stalls": stalls,
        # host seconds the profiler added, summed over its tasks
        "trace.overhead_s": profiled_wall - plain_wall,
    }
    for package in PACKAGES:
        layers[f"{package}.self_s"] = self_s.get(package, 0.0)
    info = {"bench.point_self_s": spans.self_total("point"),
            "profiled_self_s": {k: round(v, 4) for k, v in self_s.items()},
            "plain_wall_s": plain_wall, "profiled_wall_s": profiled_wall}
    if spot is not None:
        layers["spot.events"] = spot["events"]
        layers["spot.polls"] = spot["polls"]
        info["spot_matches_baseline"] = (spot["events"] == SPOT_EVENTS
                                         and spot["polls"] == SPOT_POLLS)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "layers": layers, "info": info}


def spot_point() -> ExperimentPoint:
    workload, scheme, operations, seed = SPOT
    return ExperimentPoint(workload, scheme, base_config(),
                           operations=operations, seed=seed)


def spot_census() -> Dict[str, int]:
    """Events and controller polls of the spot point (``sps/sp``, 2
    cores, 30 operations, seed 42) on the default kernel."""
    result = _profile_point(spot_point())
    return {"events": result["events"], "polls": result["polls"]}
