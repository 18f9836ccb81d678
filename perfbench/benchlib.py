"""The benchmark's own arithmetic: percentiles, span self time, failure
counting, metric-name grammar and the result line.

Pure functions of their arguments (no ``repro`` import), so the unit
tests in ``test_perfbench.py`` pin every number the benchmark reports
without running a simulation.
"""

from __future__ import annotations

import math
import re
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10

#: iterations of the host-speed calibration loop, and the seconds that
#: loop takes on the reference host every time is normalized to
CALIBRATION_LOOPS = 300_000
REFERENCE_LOOP_S = 0.020
#: least host seconds of work between two calibration samples
CALIBRATION_EVERY_S = 0.15
#: seconds of work normalized together by the samples taken during them
WINDOW_S = 5.0

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), fraction) - 1]


def _rank(count: int, fraction: float) -> int:
    # round away float noise first: 0.9 * 100 is 90.00000000000001
    return max(1, math.ceil(round(fraction * count, 9)))


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``fraction`` percentile."""
    return count - _rank(count, fraction) if count else 0


def tail_reportable(count: int, fraction: float) -> bool:
    """True when at least :data:`MIN_BEYOND` samples lie beyond the
    percentile, the rule for reporting it as a tail latency."""
    return beyond(count, fraction) >= MIN_BEYOND


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p90 in milliseconds plus the sample counts behind them."""
    count = len(seconds)
    return {
        "p50_ms": percentile(seconds, 0.5) * 1000.0,
        "p90_ms": percentile(seconds, 0.9) * 1000.0,
        "count": count,
        "beyond_p90": beyond(count, 0.9),
        "p90_reportable": tail_reportable(count, 0.9),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def failed_frac(attempted: int, failed: int) -> float:
    """Failed share of attempted operations; an operation that failed
    more than one check still counts once."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set of this process, or of the largest
    finished child process, in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
def calibration_sample(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds a fixed pure-Python integer loop takes right now.  It
    shares nothing with the simulator, so a change to the program under
    test cannot move it."""
    begin = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 0xFF
    return time.perf_counter() - begin


class HostSpeed:
    """Calibration samples interleaved with a run's work.

    Shared hosts drift by tens of percent over minutes (other tenants),
    and the calibration loop drifts with them.  Dividing a run's host
    times by :attr:`slowdown` (median sample over the reference loop
    time) reports them in reference-host seconds, which removes the
    drift while the median over many samples averages out the
    sub-second noise."""

    def __init__(self, sampler=calibration_sample,
                 clock=time.perf_counter) -> None:
        self.sampler = sampler
        self.clock = clock
        self.samples: List[float] = []
        self._last = clock()

    def sample(self) -> None:
        self.samples.append(self.sampler())
        self._last = self.clock()

    def tick(self) -> None:
        """Sample if :data:`CALIBRATION_EVERY_S` passed since the last."""
        if self.clock() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        if not self.samples:
            raise ValueError("no calibration samples taken")
        return statistics.median(self.samples) / REFERENCE_LOOP_S

    def mark(self) -> int:
        """Position to pass to :meth:`slowdown_since`."""
        return len(self.samples)

    def slowdown_since(self, mark: int) -> float:
        """Slowdown over the samples taken after ``mark``: host speed
        drifts within a run too, so a pass is normalized by its own."""
        recent = self.samples[mark:]
        if not recent:
            return self.slowdown
        return statistics.median(recent) / REFERENCE_LOOP_S


class WorkTimer:
    """Host seconds of work, converted to reference-host seconds one
    :data:`WINDOW_S` window at a time, each window by the calibration
    samples taken during it: host speed drifts within a run too."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.measured_s = 0.0
        self._reference_s = 0.0
        self._window_s = 0.0
        self._mark = host.mark()

    def add(self, seconds: float) -> None:
        """Count ``seconds`` of work, then sample host speed if due."""
        self.measured_s += seconds
        self._window_s += seconds
        self.host.tick()
        if self._window_s >= WINDOW_S:
            self._close()

    def _close(self) -> None:
        if self._window_s:
            self._reference_s += (self._window_s
                                  / self.host.slowdown_since(self._mark))
        self._window_s = 0.0
        self._mark = self.host.mark()

    @property
    def reference_s(self) -> float:
        """All work so far in reference-host seconds."""
        self._close()
        return self._reference_s


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional["Span"] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``
    (each clipped to the interval; overlaps count once)."""
    lo, hi = interval
    clipped = sorted((max(lo, start), min(hi, end))
                     for start, end in children)
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (span[1] - span[0]) - covered(span, children)


class SpanLog:
    """In-memory spans around the benchmark's calls into each layer.

    Kept in a list and summarised when the run ends; nothing is
    written while measuring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), 0.0, parent)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()
            self.spans.append(record)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(
                    (span.start, span.end))
        return sum(self_time((s.start, s.end), children.get(id(s), ()))
                   for s in self.spans if s.name == name)


# ---------------------------------------------------------------------------
# result line
# ---------------------------------------------------------------------------
def check_names(specs: Iterable[Dict[str, object]]) -> List[str]:
    """Grammar violations in metric/workload specs (empty when valid)."""
    problems = []
    seen = set()
    for spec in specs:
        name = spec.get("name")
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
        elif name in seen:
            problems.append(f"duplicate name {name!r}")
        seen.add(name)
        unit = spec.get("unit")
        if unit is not None and (not isinstance(unit, str)
                                 or not UNIT_RE.match(unit)):
            problems.append(f"bad unit {unit!r} for {name!r}")
    return problems


def result_line(specs: Sequence[Dict[str, object]],
                values: Dict[str, float], attempted: int, failed: int,
                correct: bool) -> Dict[str, object]:
    """The final JSON object: exactly the named metrics, each with its
    declared unit."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    failed_frac(attempted, failed)  # validates the counts
    return {
        "correct": bool(correct) and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {spec["name"]: {"value": float(values[spec["name"]]),
                                   "unit": spec["unit"]}
                    for spec in specs},
    }
