"""Unit tests of the benchmark's own arithmetic and census.

    python3 -m pytest perfbench -q
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
from benchlib import (SpanLog, beyond, check_names, covered,  # noqa: E402
                      failed_frac, latency_summary, percentile,
                      quartile_spread, result_line, self_time,
                      tail_reportable)
from census import package_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles and the ten-beyond rule ---------------------------------
def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # order of input is irrelevant


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_ten_beyond_rule():
    assert beyond(100, 0.9) == 10
    assert tail_reportable(100, 0.9)
    # 99 samples: rank ceil(89.1) = 90 leaves only 9 above p90
    assert beyond(99, 0.9) == 9
    assert not tail_reportable(99, 0.9)
    assert tail_reportable(20, 0.5) and not tail_reportable(19, 0.5)
    assert beyond(0, 0.9) == 0


def test_latency_summary_is_in_milliseconds_with_counts():
    summary = latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["p90_ms"] == pytest.approx(180.0)
    assert summary["count"] == 200
    assert summary["beyond_p90"] == 20
    assert summary["p90_reportable"]
    assert not latency_summary([0.001] * 99)["p90_reportable"]


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # quantiles(n=4, exclusive) = 11.75, 14.5, 17.25
    assert quartile_spread(values) == pytest.approx(5.5 / 14.5)


# -- host-speed normalization --------------------------------------------
def test_host_speed_divides_out_the_median_slowdown():
    samples = iter([0.030, 0.040, 0.050])
    host = benchlib.HostSpeed(sampler=lambda: next(samples),
                              clock=lambda: 0.0)
    with pytest.raises(ValueError):
        host.slowdown
    for _ in range(3):
        host.sample()
    # median 0.040 s against the 0.020 s reference: a host half as fast
    assert host.slowdown == pytest.approx(2.0)


def test_host_speed_since_a_mark_uses_only_later_samples():
    samples = iter([0.020, 0.060, 0.080])
    host = benchlib.HostSpeed(sampler=lambda: next(samples),
                              clock=lambda: 0.0)
    host.sample()
    mark = host.mark()
    assert host.slowdown_since(mark) == pytest.approx(1.0)  # none yet
    host.sample()
    host.sample()
    assert host.slowdown_since(mark) == pytest.approx(3.5)
    assert host.slowdown == pytest.approx(3.0)


def test_host_speed_ticks_only_after_the_sampling_interval():
    now = [0.0]
    host = benchlib.HostSpeed(sampler=lambda: 0.02, clock=lambda: now[0])
    host.tick()
    assert host.samples == []
    now[0] = benchlib.CALIBRATION_EVERY_S
    host.tick()
    assert host.samples == [0.02]


def test_work_timer_normalizes_each_window_by_its_own_samples():
    samples = iter([0.020, 0.040])
    host = benchlib.HostSpeed(sampler=lambda: next(samples),
                              clock=iter(range(0, 100, 1)).__next__)
    timer = benchlib.WorkTimer(host)
    timer.add(benchlib.WINDOW_S)      # host at reference speed
    timer.add(benchlib.WINDOW_S)      # host twice as slow
    assert timer.measured_s == pytest.approx(2 * benchlib.WINDOW_S)
    assert timer.reference_s == pytest.approx(1.5 * benchlib.WINDOW_S)


# -- span self time ------------------------------------------------------
def test_self_time_subtracts_covered_child_time_once():
    children = [(1, 3), (2, 5), (8, 12)]
    assert covered((0, 10), children) == 6       # [1,5] + [8,10]
    assert self_time((0, 10), children) == 4
    assert self_time((0, 10), []) == 10
    assert self_time((0, 10), [(20, 30)]) == 10  # outside the parent


def test_span_log_nesting_and_self_totals():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    log = SpanLog(clock=lambda: next(ticks))
    with log.span("point"):           # 0 .. 10
        with log.span("run"):         # 1 .. 3
            pass
        with log.span("collect"):     # 4 .. 7
            pass
    assert log.total("point") == 10
    assert log.total("run") == 2
    assert log.self_total("point") == 5
    assert log.self_total("run") == 2
    assert [s.name for s in log.spans] == ["run", "collect", "point"]


# -- failure counting ----------------------------------------------------
def test_failed_frac_counts_against_attempted():
    assert failed_frac(10, 0) == 0.0
    assert failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_result_line_is_incorrect_whenever_anything_failed():
    specs = [{"name": "x_ms", "unit": "ms"}]
    ok = result_line(specs, {"x_ms": 1.5}, 4, 0, correct=True)
    assert ok == {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}
    assert not result_line(specs, {"x_ms": 1.5}, 4, 1, True)["correct"]
    assert not result_line(specs, {"x_ms": 1.5}, 4, 0, False)["correct"]
    with pytest.raises(KeyError):
        result_line(specs, {}, 4, 0, True)


# -- metric-name grammar -------------------------------------------------
def test_name_grammar():
    good = [{"name": "sim.ns_per_event", "unit": "ns"},
            {"name": "p90_ms", "unit": "ms"}, {"name": "r", "unit": "1/s"}]
    assert check_names(good) == []
    bad = [{"name": "_lead", "unit": "s"}, {"name": "a" * 65, "unit": "s"},
           {"name": "has space", "unit": "s"}, {"name": "ok", "unit": "m s"},
           {"name": "dup"}, {"name": "dup"}]
    problems = check_names(bad)
    assert len(problems) == 5
    assert any("duplicate" in p for p in problems)


def test_benchmark_json_follows_the_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for group in ("workloads", "end_to_end", "per_layer"):
        assert check_names(SPEC[group]) == [], group
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    import run
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# -- census --------------------------------------------------------------
def test_package_of():
    assert package_of("/x/src/repro/memory/controller.py") == "memory"
    assert package_of("/x/src/repro/cli.py") == "other"
    assert package_of("~") == "other"
    assert package_of("/usr/lib/python3.11/heapq.py") == "other"


def test_serve_window_mean():
    from serve_wl import _mean_window

    before = {"x.mean": 2.0, "x.count": 4}
    after = {"x.mean": 3.0, "x.count": 8}
    assert _mean_window(before, after, "x") == pytest.approx(4.0)
    assert _mean_window(after, after, "x") == 0.0


def test_digest_store_flags_changed_bytes(tmp_path):
    from grid import DigestStore

    store = DigestStore(tmp_path / "d.json")
    assert store.check("k", "aa")
    assert store.check("k", "aa")
    store.save()
    again = DigestStore(tmp_path / "d.json")
    assert not again.check("k", "bb")
    assert again.check("other", "cc")


def test_spot_census_matches_the_recorded_baseline():
    """``sps/sp``, 2 cores, 30 operations, seed 42 on the default kernel:
    212,808 events of which 190,881 are controller polls, as counted
    with cProfile before this benchmark existed."""
    import grid

    spot = grid.spot_census()
    assert spot == {"events": grid.SPOT_EVENTS, "polls": grid.SPOT_POLLS}
