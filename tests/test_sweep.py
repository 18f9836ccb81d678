"""Tests for the parameter-sweep utility."""

import json

import pytest

from repro.common.config import small_machine_config
from repro.sim.sweep import (
    Sweep,
    SweepOutcome,
    llc_size_sweep,
    nvm_write_latency_sweep,
    tc_size_sweep,
)


def core_ids(result):
    """The core ids a result's per-core stats were recorded for."""
    return {name.split(".")[1] for name in result.raw_stats
            if name.startswith("core.")}


class TestSweepConstruction:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            Sweep("x", [], lambda cfg, v: cfg)

    def test_ready_made_sweeps_have_values(self):
        for sweep in (tc_size_sweep(), llc_size_sweep(),
                      nvm_write_latency_sweep()):
            assert sweep.values


class TestUpfrontValidation:
    """A bad knob value must fail before the first point simulates —
    not minutes into the grid (PR 1's construction-time validation,
    now applied to whole grids at once)."""

    def test_bad_value_raises_before_any_point_runs(self, monkeypatch):
        executed = []
        monkeypatch.setattr("repro.sim.parallel.execute_point",
                            lambda *a, **k: executed.append(a))
        # 1000 B / 64 B lines = 15 lines: not divisible into 16-way
        # sets, an error validate_config catches up front
        sweep = llc_size_sweep(sizes=(32 * 1024, 1000))
        with pytest.raises(ValueError, match="llc"):
            sweep.run("sps", "txcache", operations=10)
        assert executed == []

    def test_bad_value_reported_with_its_knob(self):
        sweep = llc_size_sweep(sizes=(1000,))
        with pytest.raises(ValueError, match="llc_size_bytes=1000"):
            sweep.run("sps", "txcache", operations=10)

    def test_valid_grid_still_runs(self):
        outcome = tc_size_sweep(sizes=(4096,)).run(
            "sps", "txcache", operations=10, num_cores=1,
            array_elements=64)
        assert len(outcome.points) == 1


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def outcome(self):
        return tc_size_sweep(sizes=(512, 4096)).run(
            "sps", "txcache", operations=25, num_cores=1,
            array_elements=64)

    def test_one_point_per_value(self, outcome):
        assert outcome.values() == [512, 4096]
        assert len(outcome.points) == 2

    def test_num_cores_sets_the_swept_machine(self, outcome):
        """Without a base config, ``num_cores`` sizes the machine every
        point runs on."""
        for point in outcome.points:
            assert core_ids(point.result) == {"0"}

    def test_base_config_overrides_num_cores(self):
        outcome = tc_size_sweep(sizes=(4096,)).run(
            "sps", "txcache", small_machine_config(num_cores=2),
            operations=5, num_cores=1, array_elements=64)
        assert core_ids(outcome.points[0].result) == {"0", "1"}

    def test_configure_applied(self):
        sweep = nvm_write_latency_sweep(latencies_ns=(76.0, 350.0))
        outcome = sweep.run("sps", "optimal", operations=25, num_cores=1,
                            array_elements=2048)
        fast, slow = outcome.points
        # slower NVM writes -> same or more cycles (write drain pressure)
        assert slow.result.cycles >= fast.result.cycles

    def test_metric_extraction(self, outcome):
        cycles = outcome.metric(lambda r: r.cycles)
        assert len(cycles) == 2 and all(c > 0 for c in cycles)

    def test_json_round_trip(self, outcome):
        data = json.loads(outcome.to_json())
        assert data["sweep"] == "tc_size_bytes"
        assert data["workload"] == "sps"
        assert len(data["points"]) == 2
        assert data["points"][0]["result"]["cycles"] > 0

    def test_format_renders_table(self, outcome):
        text = outcome.format()
        assert "tc_size_bytes" in text
        assert "cycles" in text
        assert "512" in text
