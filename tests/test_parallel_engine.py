"""Tests for the parallel experiment engine and its result cache.

The engine's contract is stronger than "runs stuff in parallel": the
merged output must be **identical** whatever the job count (same
objects, field for field), and a cache hit must never change a report.
Every batch driver runs its points through the engine — a default
single-job one when the caller passes none — so the drivers are held
equal to direct per-point calls, to the default engine and to a pool.
The Hypothesis properties at the bottom drive random grids through
one job, a pool, and a cold/warm cache cycle and require exact
agreement every time.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import (
    FaultConfig,
    config_fingerprint,
    small_machine_config,
)
from repro.common.types import SchemeName
from repro.litmus import default_suite
from repro.litmus.runner import run_litmus_matrix
from repro.sim.chaos import ChaosRun, chaos_sweep, run_chaos_crash
from repro.sim.crash import (
    CrashReport,
    crash_sweep,
    measure_run_length,
    run_with_crash,
)
from repro.sim.parallel import (
    ChaosPoint,
    CrashPoint,
    ExperimentEngine,
    ExperimentPoint,
    LitmusPoint,
    ResultCache,
    RunLengthPoint,
)
from repro.sim.runner import make_traces, run_experiment, run_grid
from repro.sim.sweep import tc_size_sweep

CONFIG = small_machine_config(num_cores=1)


def result_dicts(results):
    return [r.to_dict(include_raw=True) for r in results]


class TestPointKeys:
    def test_key_is_stable(self):
        a = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        b = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        assert a.key == b.key

    @pytest.mark.parametrize("change", [
        lambda p: replace(p, workload="hashtable"),
        lambda p: replace(p, scheme="optimal"),
        lambda p: replace(p, operations=21),
        lambda p: replace(p, seed=43),
        lambda p: replace(p, workload_params=(("array_elements", 64),)),
        lambda p: replace(p, config=replace(
            p.config, txcache=replace(p.config.txcache, size_bytes=1024))),
        # a knob buried three dataclasses deep still changes the key
        lambda p: replace(p, config=replace(
            p.config, faults=FaultConfig(nvm_write_fail_rate=1e-3))),
    ])
    def test_any_spec_change_changes_key(self, change):
        base = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        assert change(base).key != base.key

    def test_kinds_never_collide(self):
        exp = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        length = RunLengthPoint("sps", "txcache", CONFIG, operations=20)
        assert exp.key != length.key

    # one fixed spec per kind and the digest it keys to: cache entries
    # and serve request keys must not move when the point code does
    @pytest.mark.parametrize("point, digest", [
        (ExperimentPoint("sps", "txcache", CONFIG, operations=20, seed=7,
                         workload_params=(("array_elements", 64),)),
         "eafae1229d19c08e397463ea263e09beb2303d6a4283fa13c587e03dcb0c9ef4"),
        (RunLengthPoint("sps", "txcache", CONFIG, operations=20, seed=7,
                        workload_params=(("array_elements", 64),)),
         "6af691d83fe9a4800b0adebd45cc4f39c4b13a42f97ac0ea8cfc2f039b828286"),
        (CrashPoint("sps", "txcache", 1000, 4000, CONFIG, operations=20,
                    seed=7, workload_params=(("array_elements", 64),)),
         "93baecf5824ee58a3f589c5ed199f22685dc52bc9280ab3abd71c3e7b568cc35"),
        (ChaosPoint("sps", "txcache", 1000, 4000, CONFIG, operations=20,
                    seed=7, workload_params=(("array_elements", 64),)),
         "7e5f7aed465cd68ea6b44d35f27c88bc407e4a0483b3218cd3b0477cd69b02ac"),
        (LitmusPoint(default_suite(3, count=1)[0].canonical_json(), "kiln",
                     CONFIG, check_every=2),
         "74b4f5f9cce9db429b2fc94ad9b8884b1075a8be2bebadf495fcdfdfdb3fae83"),
    ], ids=["experiment", "run_length", "crash", "chaos", "litmus"])
    def test_key_is_pinned(self, point, digest):
        assert point.key == digest

    def test_config_fingerprint_covers_every_knob(self):
        base = small_machine_config()
        assert config_fingerprint(base) == config_fingerprint(
            small_machine_config())
        deep = replace(base, nvm=replace(
            base.nvm, timing=replace(base.nvm.timing, write_ns=77.0)))
        assert config_fingerprint(deep) != config_fingerprint(base)


class TestRoundTrips:
    """from_dict(to_dict(x)) must reproduce x exactly — through JSON."""

    def test_simulation_result(self):
        result = run_experiment("sps", "txcache", config=CONFIG,
                                operations=20)
        data = json.loads(json.dumps(result.to_dict(include_raw=True)))
        rebuilt = type(result).from_dict(data)
        assert rebuilt.to_dict(include_raw=True) == \
            result.to_dict(include_raw=True)
        assert rebuilt.scheme is SchemeName.TXCACHE

    def test_crash_report(self):
        report = run_with_crash("sps", "txcache", 2000, config=CONFIG,
                                operations=15)
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = CrashReport.from_dict(data)
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.committed == report.committed

    def test_chaos_run(self):
        report = chaos_sweep(["sps"], fractions=[0.5], operations=15)
        run = report.runs[0]
        data = json.loads(json.dumps(run.to_dict()))
        assert ChaosRun.from_dict(data).to_dict() == run.to_dict()


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"workload": "sps"}, {"cycles": 7})
        assert cache.get("k1") == {"cycles": 7}
        assert len(cache) == 1

    def test_missing_key_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_corrupt_file_is_miss_not_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_text("{not json")
        cache.path("shape").write_text(json.dumps(["wrong", "shape"]))
        assert cache.get("bad") is None
        assert cache.get("shape") is None

    def test_spec_stored_for_debugging(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"workload": "sps"}, {"cycles": 7})
        entry = json.loads(cache.path("k1").read_text())
        assert entry["spec"] == {"workload": "sps"}

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {}, {"cycles": 7})
        assert [path.name for path in tmp_path.iterdir()] == ["k1.json"]

    def test_concurrent_writers_always_leave_valid_entries(self, tmp_path):
        import threading as _threading

        cache = ResultCache(tmp_path)
        errors = []

        def hammer(worker):
            try:
                for i in range(25):
                    cache.put("shared", {"w": worker},
                              {"cycles": 7, "i": i})
                    assert cache.get("shared") is not None
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [_threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        payload = cache.get("shared")
        assert payload is not None and payload["cycles"] == 7
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["shared.json"]

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_cap_evicts_oldest_mtime_first(self, tmp_path):
        import os as _os

        filler = ResultCache(tmp_path)          # uncapped: no eviction
        for index, key in enumerate(("old", "mid", "new")):
            filler.put(key, {}, {"pad": "x" * 200})
            _os.utime(filler.path(key), (100 + index, 100 + index))
        entry_size = filler.path("old").stat().st_size
        capped = ResultCache(tmp_path, max_bytes=entry_size * 2 + 10)
        capped.put("now", {}, {"pad": "x" * 200})
        assert capped.get("old") is None        # oldest two went
        assert capped.get("mid") is None
        assert capped.get("new") is not None
        assert capped.get("now") is not None
        assert capped.size_bytes() <= capped.max_bytes

    def test_just_written_entry_survives_tiny_cap(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put("only", {}, {"pad": "x" * 200})
        assert cache.get("only") is not None    # never evicts itself

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(f"k{index}", {}, {"pad": "x" * 200})
        assert len(cache) == 5


class TestEngineBasics:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_engine_matches_direct_run(self):
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        (via_engine,) = ExperimentEngine(jobs=1).run([point])
        direct = run_experiment("sps", "txcache", config=CONFIG,
                                operations=20)
        assert via_engine.to_dict(include_raw=True) == \
            direct.to_dict(include_raw=True)

    def test_duplicate_points_execute_once(self):
        engine = ExperimentEngine(jobs=1)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=15)
        first, second = engine.run([point, point])
        assert engine.stats.counter("engine.executed") == 1
        assert first.to_dict(include_raw=True) == \
            second.to_dict(include_raw=True)

    def test_per_point_timing_recorded(self):
        engine = ExperimentEngine(jobs=1)
        engine.run([ExperimentPoint("sps", "txcache", CONFIG,
                                    operations=15)])
        timing = engine.stats.summary("engine.point.seconds")
        assert timing.count == 1
        assert timing.total > 0

    def test_no_cache_flag_means_no_files(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_cache=False)
        engine.run([ExperimentPoint("sps", "txcache", CONFIG,
                                    operations=15)])
        assert list(tmp_path.glob("*.json")) == []

    def test_summary_mentions_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=15)
        engine.run([point])
        engine.run([point])
        assert "hits=1" in engine.summary()


class TestSweepThroughEngine:
    def test_sweep_equals_direct_runs_default_and_pooled_engines(self):
        sweep = tc_size_sweep(sizes=(512, 4096))
        kwargs = dict(operations=20, num_cores=1, array_elements=64)
        direct = [run_experiment("sps", "txcache",
                                 config=sweep.configure(CONFIG, size),
                                 operations=20, array_elements=64)
                  for size in sweep.values]
        default = sweep.run("sps", "txcache", **kwargs)
        pooled = sweep.run("sps", "txcache",
                           engine=ExperimentEngine(jobs=2), **kwargs)
        assert result_dicts(direct) == \
            [point.result.to_dict(include_raw=True)
             for point in default.points]
        assert default.to_json() == pooled.to_json()

    def test_engine_rejects_prebuilt_traces(self):
        from repro.sim.runner import make_traces

        traces = make_traces("sps", 1, 10)
        with pytest.raises(ValueError, match="traces"):
            tc_size_sweep(sizes=(4096,)).run(
                "sps", "txcache", traces=traces,
                engine=ExperimentEngine(jobs=1))


class TestCrashAndChaosThroughEngine:
    def test_crash_sweep_equals_direct_runs_default_and_pooled(self):
        fractions = [0.4, 0.8]
        total = measure_run_length("sps", "txcache", config=CONFIG,
                                   operations=15)
        direct = [run_with_crash("sps", "txcache",
                                 max(1, int(total * fraction)),
                                 config=CONFIG, operations=15,
                                 total_cycles=total)
                  for fraction in fractions]
        default = crash_sweep("sps", "txcache", fractions=fractions,
                              operations=15)
        pooled = crash_sweep("sps", "txcache", fractions=fractions,
                             operations=15, engine=ExperimentEngine(jobs=2))
        assert [r.to_dict() for r in direct] == \
            [r.to_dict() for r in default] == \
            [r.to_dict() for r in pooled]

    def test_chaos_sweep_equals_direct_runs_default_and_pooled(self):
        fault = FaultConfig(nvm_write_fail_rate=1e-3, ack_loss_rate=1e-3)
        fractions = [0.3, 0.7]
        traces = make_traces("sps", 1, 15)
        total = measure_run_length("sps", "txcache", config=CONFIG,
                                   traces=traces)
        direct = [run_chaos_crash(
            "sps", "txcache", max(1, int(total * fraction)), traces,
            replace(CONFIG, faults=replace(fault, seed=fault.seed + index)),
            total_cycles=total)
            for index, fraction in enumerate(fractions)]
        kwargs = dict(schemes=["txcache"], fault_config=fault,
                      fractions=fractions, operations=15)
        default = chaos_sweep(["sps"], **kwargs)
        pooled = chaos_sweep(["sps"], engine=ExperimentEngine(jobs=2),
                             **kwargs)
        assert default.format() == pooled.format()
        assert [r.to_dict() for r in direct] == \
            [r.to_dict() for r in default.runs] == \
            [r.to_dict() for r in pooled.runs]


BAD_CONFIG = replace(CONFIG, llc=replace(CONFIG.llc, size_bytes=1000))


class TestUpfrontValidation:
    """A bad knob value must raise before any point simulates."""

    @pytest.mark.parametrize("run_driver, context", [
        (lambda: chaos_sweep(["sps"], config=BAD_CONFIG, operations=15),
         "chaos sweep config"),
        (lambda: crash_sweep("sps", "txcache", config=BAD_CONFIG,
                             operations=15),
         "crash sweep config"),
        (lambda: tc_size_sweep(sizes=(4096,)).run(
            "sps", "txcache", BAD_CONFIG, operations=15),
         "sweep tc_size_bytes=4096"),
    ], ids=["chaos_sweep", "crash_sweep", "sweep"])
    def test_bad_config_raises_before_running(self, monkeypatch,
                                              run_driver, context):
        executed = []
        monkeypatch.setattr("repro.sim.parallel.execute_point",
                            lambda *a, **k: executed.append(a))
        with pytest.raises(ValueError, match=context):
            run_driver()
        assert executed == []


FAULTS = FaultConfig(nvm_write_fail_rate=1e-3, ack_loss_rate=1e-3)

#: every batch driver, run on a small grid; each returns its results
#: as to_dict() output
DRIVERS = {
    "run_grid": lambda **kw: [
        result.to_dict(include_raw=True)
        for row in run_grid(["sps"], ["txcache", "optimal"], CONFIG,
                            operations=10, **kw).values()
        for result in row.values()],
    "sweep": lambda **kw: [
        point.result.to_dict(include_raw=True)
        for point in tc_size_sweep(sizes=(512, 4096)).run(
            "sps", "txcache", CONFIG, operations=10, **kw).points],
    "crash_sweep": lambda **kw: [
        report.to_dict()
        for report in crash_sweep("sps", "txcache", fractions=(0.3, 0.7),
                                  operations=10, **kw)],
    "chaos_sweep": lambda **kw: [
        run.to_dict()
        for run in chaos_sweep(["sps"], fault_config=FAULTS,
                               fractions=(0.3, 0.7), operations=10,
                               **kw).runs],
    "litmus_matrix": lambda **kw: [
        result.to_dict()
        for result in run_litmus_matrix(default_suite(3, count=2),
                                        ("txcache",), **kw).results],
}

#: the drivers that capture per-point Chrome traces, and how many
#: traced points each of the grids above has
TRACED_POINTS = {"run_grid": 2, "sweep": 2, "crash_sweep": 2,
                 "chaos_sweep": 2}


class TestOneBatchPath:
    """Every driver builds points and hands them to one engine."""

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_warm_cache_executes_nothing(self, driver, tmp_path):
        cold_engine = ExperimentEngine(cache_dir=tmp_path)
        cold = DRIVERS[driver](engine=cold_engine)
        assert cold_engine.stats.counter("engine.executed") > 0
        warm_engine = ExperimentEngine(cache_dir=tmp_path)
        warm = DRIVERS[driver](engine=warm_engine)
        assert warm_engine.stats.counter("engine.executed") == 0
        assert warm == cold

    @pytest.mark.parametrize("driver", sorted(TRACED_POINTS))
    def test_trace_dir_without_an_engine(self, driver, tmp_path,
                                         monkeypatch):
        from repro.sim import parallel

        traced = []
        execute = parallel.execute_point

        def record(point, *args):
            if getattr(point, "trace_dir", None) is not None:
                traced.append(point.key)
            return execute(point, *args)

        monkeypatch.setattr(parallel, "execute_point", record)
        DRIVERS[driver](trace_dir=str(tmp_path))
        assert len(traced) == TRACED_POINTS[driver]
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            sorted(f"{key}.trace.json" for key in traced)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
POINT = st.tuples(
    st.sampled_from(["sps", "hashtable"]),
    st.sampled_from(["optimal", "txcache"]),
    st.integers(min_value=8, max_value=15),   # operations
    st.integers(min_value=0, max_value=3),    # seed
)
GRID = st.lists(POINT, min_size=1, max_size=3)


def build_points(grid):
    return [ExperimentPoint(workload, scheme, CONFIG,
                            operations=operations, seed=seed)
            for workload, scheme, operations, seed in grid]


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=GRID)
def test_property_pooled_equals_serial(grid):
    """Random grids: the pooled path's merged report is identical to
    the single-job (inline) engine's, element for element."""
    points = build_points(grid)
    serial = ExperimentEngine(jobs=1).run(points)
    pooled = ExperimentEngine(jobs=2).run(points)
    assert result_dicts(serial) == result_dicts(pooled)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=GRID)
def test_property_cache_hits_never_change_a_report(grid, tmp_path_factory):
    """Cold run, then a warm run on the same cache: every unique point
    hits, nothing re-simulates, and the merged report is unchanged."""
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    points = build_points(grid)
    unique = len({point.key for point in points})
    cold_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    cold = cold_engine.run(points)
    assert cold_engine.stats.counter("engine.executed") == unique
    warm_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warm = warm_engine.run(points)
    assert warm_engine.stats.counter("engine.cache.hits") == unique
    assert warm_engine.stats.counter("engine.executed") == 0
    assert result_dicts(cold) == result_dicts(warm)


class TestResultCacheCounters:
    """hit/miss/eviction counters feed the serve /stats endpoint and
    the cluster's merged cache-effectiveness view."""

    def test_fresh_cache_counts_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.counters() == {"hits": 0, "misses": 0,
                                    "evictions": 0}

    def test_misses_then_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        cache.put("k", {}, {"cycles": 1})
        assert cache.get("k") == {"cycles": 1}
        assert cache.get("k") == {"cycles": 1}
        assert cache.counters() == {"hits": 2, "misses": 1,
                                    "evictions": 0}

    def test_corrupt_entries_count_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_text("{not json")
        cache.path("shape").write_text(json.dumps(["wrong"]))
        assert cache.get("bad") is None
        assert cache.get("shape") is None
        assert cache.counters()["misses"] == 2

    def test_evictions_counted_by_the_evicting_instance(self, tmp_path):
        import os as _os

        filler = ResultCache(tmp_path)
        for index, key in enumerate(("old", "mid", "new")):
            filler.put(key, {}, {"pad": "x" * 200})
            _os.utime(filler.path(key), (100 + index, 100 + index))
        entry_size = filler.path("old").stat().st_size
        capped = ResultCache(tmp_path, max_bytes=entry_size * 2 + 10)
        capped.put("now", {}, {"pad": "x" * 200})
        assert capped.counters()["evictions"] == 2
        assert filler.counters()["evictions"] == 0   # not its doing

    def test_uncapped_cache_never_counts_evictions(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(f"k{index}", {}, {"pad": "x" * 200})
        assert cache.counters()["evictions"] == 0
