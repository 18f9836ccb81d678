"""``litmus``: ``default_suite(seed)`` under every registered scheme,
crash-checked at every cycle, serially, plus ``broken_commit`` as the
negative control the oracle must catch.

The runner steps one simulation with ``run(until=cycle)`` and asks the
scheme's recovery model and the legal-persist-set oracle about every
new state, so the event kernel and the controllers are driven very
differently from the grid, and the oracle and recovery do half the
work.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import repro.litmus.runner as litmus_runner
from repro.litmus import default_suite, run_litmus
from repro.persistence import SCHEME_REGISTRY, scheme_names
from repro.sim import System

from benchlib import HostSpeed, WorkTimer, latency_summary
from census import PACKAGES, Census, memory_census

NEGATIVE_CONTROL = "broken_commit"
#: seconds one suite pass takes at reference host speed
NOMINAL_PASS_S = 3.0


def schemes() -> List[str]:
    """The seven real schemes, then the negative control."""
    return scheme_names(include_extras=False) + [NEGATIVE_CONTROL]


def suite(seed: int, index: int):
    return default_suite(seed * 1000 + index)


def run_pass(seed: int, index: int,
             timer: Optional[WorkTimer] = None) -> Dict[str, object]:
    """One suite under every scheme; per-check latency and verdicts."""
    latencies: List[float] = []
    crash_points = states = cycles = 0
    attempted = failed = 0
    problems: List[str] = []
    caught = False
    for program in suite(seed, index):
        for scheme in schemes():
            attempted += 1
            begin = time.perf_counter()
            try:
                result = run_litmus(program, scheme)
            except Exception as error:  # noqa: BLE001 - counted, reported
                failed += 1
                problems.append(f"{program.name}/{scheme}: {error!r}")
                continue
            latencies.append(time.perf_counter() - begin)
            crash_points += result.crash_cycles
            states += result.states_checked
            cycles += result.total_cycles
            if scheme == NEGATIVE_CONTROL:
                caught = caught or not result.consistent
            elif not result.consistent:
                failed += 1
                problems.append(f"{program.name}/{scheme}: "
                                f"{result.violating_cycles} violating cycles")
            if timer is not None:
                timer.add(latencies[-1])
    if not caught:
        # the control's checks all passed, so the oracle missed a bug
        failed += 1
        problems.append(f"{NEGATIVE_CONTROL} was not caught by suite "
                        f"{seed * 1000 + index}")
    return {"latencies": latencies, "crash_points": crash_points,
            "states": states, "cycles": cycles, "attempted": attempted,
            "failed": failed, "problems": problems}


def measure(seed: int, seconds: float, host: HostSpeed) -> Dict[str, object]:
    """Whole suites, a fresh suite seed each, as many as fill ``seconds``
    at reference host speed (so every run does the same work), sampling
    host speed between checks."""
    count = max(1, round(seconds / NOMINAL_PASS_S))
    timer = WorkTimer(host)
    passes = [run_pass(seed, index, timer) for index in range(count)]
    latencies = [x for p in passes for x in p["latencies"]]
    crash_points = sum(p["crash_points"] for p in passes)
    busy = timer.reference_s
    rate = crash_points / busy if busy else 0.0
    mean_ms = busy / len(latencies) * 1000.0 if latencies else 0.0
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [x for p in passes for x in p["problems"]],
        "values": {"throughput_per_s": rate, "latency_ms": mean_ms},
        "info": {"crash_points_per_s": rate,
                 "measured_crash_points_per_s": (
                     crash_points / timer.measured_s if latencies else 0.0),
                 "passes": len(passes), "crash_points": crash_points,
                 "states_checked": sum(p["states"] for p in passes),
                 "measured_check_latency": (latency_summary(latencies)
                                            if latencies else {})},
    }


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------
class _Timers:
    """Accumulated seconds per label, counting only the outermost call
    of a label (recovery methods may call each other)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.depth: Dict[str, int] = {}
        self.events = 0

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = self.depth.get(label, 0)
            self.depth[label] = depth + 1
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth[label] = depth
                if depth == 0:
                    self.seconds[label] = (self.seconds.get(label, 0.0)
                                           + time.perf_counter() - begin)
        return timed


@contextmanager
def _patched(targets) -> Iterator[None]:
    """Temporarily replace ``(owner, name, replacement)`` attributes,
    restoring class attributes exactly (own or inherited)."""
    saved = []
    try:
        for owner, name, replacement in targets:
            saved.append((owner, name, owner.__dict__.get(name)))
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def _recovery_classes():
    classes = []
    for name in schemes():
        cls = SCHEME_REGISTRY[name]
        if cls not in classes:
            classes.append(cls)
    return classes


def _span_targets(timers: _Timers):
    original_run = System.run

    def run(system, *args, **kwargs):
        before = system.events_executed
        try:
            return original_run(system, *args, **kwargs)
        finally:
            timers.events += system.events_executed - before

    targets = [(System, "run", timers.wrap("litmus.step", run)),
               (litmus_runner, "check_membership",
                timers.wrap("litmus.oracle",
                            litmus_runner.check_membership))]
    for cls in _recovery_classes():
        for method in ("durable_lines", "durably_committed"):
            targets.append((cls, method, timers.wrap(
                "persistence.recovery", getattr(cls, method))))
    return targets


def _profile_targets(census: Census):
    original_run = System.run

    def run(system, *args, **kwargs):
        with census:
            return original_run(system, *args, **kwargs)
    return [(System, "run", run)]


def traced(seed: int) -> Dict[str, object]:
    """Three runs of one suite: plain, with timers around the layer
    calls, and with the profiler on inside ``System.run``."""
    begin = time.perf_counter()
    plain = run_pass(seed, 0)
    plain_wall = time.perf_counter() - begin

    timers = _Timers()
    begin = time.perf_counter()
    with _patched(_span_targets(timers)):
        timed = run_pass(seed, 0)
    timed_wall = time.perf_counter() - begin

    census = Census()
    begin = time.perf_counter()
    with _patched(_profile_targets(census)):
        profiled = run_pass(seed, 0)
    profiled_wall = time.perf_counter() - begin

    events = timers.events
    step_s = timers.seconds.get("litmus.step", 0.0)
    polls = memory_census(census)
    self_s = census.self_seconds()
    layers = {
        "sim.run_s": step_s,
        "sim.events": events,
        "sim.cycles": timed["cycles"],
        "sim.ns_per_event": step_s / events * 1e9 if events else 0.0,
        "memory.polls": polls["polls"],
        "memory.useful_poll_ratio": (polls["serviced"] / polls["polls"]
                                     if polls["polls"] else 0.0),
        "evloop.poll_event_share": polls["polls"] / events if events else 0.0,
        "litmus.step_s": step_s,
        "litmus.oracle_s": timers.seconds.get("litmus.oracle", 0.0),
        "persistence.recovery_s": timers.seconds.get(
            "persistence.recovery", 0.0),
        "litmus.states_checked": timed["states"],
        "litmus.check_ratio": (timed["states"] / timed["crash_points"]
                               if timed["crash_points"] else 0.0),
        "trace.overhead_s": (timed_wall - plain_wall)
                            + (profiled_wall - plain_wall),
    }
    for package in PACKAGES:
        layers[f"{package}.self_s"] = self_s.get(package, 0.0)
    runs = (plain, timed, profiled)
    agree = len({(r["crash_points"], r["states"], r["cycles"])
                 for r in runs}) == 1
    problems = [x for r in runs for x in r["problems"]]
    if not agree:
        problems.append("instrumented litmus runs disagree with the plain run")
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + (0 if agree else 1),
            "problems": problems, "layers": layers,
            "info": {"plain_wall_s": plain_wall, "timed_wall_s": timed_wall,
                     "profiled_wall_s": profiled_wall,
                     "profiled_self_s": {k: round(v, 4)
                                         for k, v in self_s.items()}}}
