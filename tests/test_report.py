"""Tests for report formatting and normalization helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.common.config import paper_machine_config
from repro.common.types import SchemeName
from repro.sim.report import (
    SCHEME_ORDER,
    add_mean_row,
    format_bars,
    format_figure,
    format_table1,
    format_table2,
    format_table3,
    geomean,
    normalized_rows,
)
from repro.sim.runner import SimulationResult


def fake_result(workload, scheme, cycles, instructions=1000,
                nvm_writes=100.0):
    return SimulationResult(
        workload=workload, scheme=scheme, cycles=cycles,
        instructions=instructions, instructions_executed=instructions,
        transactions=10, llc_accesses=1000, llc_misses=100,
        nvm_write_lines=nvm_writes, nvm_read_lines=50,
        persist_load_latency=10.0, persist_llc_load_latency=100.0,
        load_latency=5.0)


def fake_grid():
    return {
        "wl_a": {
            SchemeName.OPTIMAL: fake_result("wl_a", SchemeName.OPTIMAL, 1000),
            SchemeName.TXCACHE: fake_result("wl_a", SchemeName.TXCACHE, 1100),
            SchemeName.SP: fake_result("wl_a", SchemeName.SP, 2000),
            SchemeName.KILN: fake_result("wl_a", SchemeName.KILN, 1250),
        },
        "wl_b": {
            SchemeName.OPTIMAL: fake_result("wl_b", SchemeName.OPTIMAL, 500),
            SchemeName.TXCACHE: fake_result("wl_b", SchemeName.TXCACHE, 520),
            SchemeName.SP: fake_result("wl_b", SchemeName.SP, 1500),
            SchemeName.KILN: fake_result("wl_b", SchemeName.KILN, 600),
        },
    }


class TestGeomean:
    def test_single_value(self):
        assert geomean([4.0]) == pytest.approx(4.0)

    def test_two_values(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)


class TestNormalizedRows:
    def test_optimal_is_one(self):
        rows = normalized_rows(fake_grid(), lambda r: r.ipc)
        for row in rows.values():
            assert row[SchemeName.OPTIMAL] == pytest.approx(1.0)

    def test_slower_scheme_below_one(self):
        rows = normalized_rows(fake_grid(), lambda r: r.ipc)
        assert rows["wl_a"][SchemeName.SP] == pytest.approx(0.5)
        assert rows["wl_a"][SchemeName.KILN] == pytest.approx(0.8)

    def test_mean_row_appended(self):
        rows = normalized_rows(fake_grid(), lambda r: r.ipc)
        add_mean_row(rows)
        assert "gmean" in rows
        assert rows["gmean"][SchemeName.OPTIMAL] == pytest.approx(1.0)

    def test_mean_row_is_idempotent(self):
        rows = normalized_rows(fake_grid(), lambda r: r.ipc)
        add_mean_row(rows)
        first = dict(rows["gmean"])
        add_mean_row(rows)
        assert rows["gmean"] == first


    def test_mean_row_follows_first_appearance(self):
        rows = {"wl_a": {SchemeName.KILN: 1.0, SchemeName.SP: 2.0},
                "wl_b": {SchemeName.OPTIMAL: 1.0, SchemeName.SP: 4.0}}
        add_mean_row(rows)
        assert list(rows["gmean"]) == [SchemeName.KILN, SchemeName.SP,
                                       SchemeName.OPTIMAL]

    def test_mean_row_order_ignores_the_hash_seed(self):
        # scheme names hash per process, so a set-built row would
        # reorder with PYTHONHASHSEED
        script = (
            "from repro.common.types import SchemeName\n"
            "from repro.sim.report import add_mean_row\n"
            "rows = {'a': {s: 1.0 for s in SchemeName}}\n"
            "add_mean_row(rows)\n"
            "print(' '.join(s.value for s in rows['gmean']))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        orders = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            orders.add(out.stdout)
        assert orders == {" ".join(s.value for s in SchemeName) + "\n"}


class TestFormatting:
    def test_format_figure_contains_all_cells(self):
        rows = normalized_rows(fake_grid(), lambda r: r.ipc)
        text = format_figure("Test figure", rows)
        assert "Test figure" in text
        assert "wl_a" in text and "wl_b" in text
        for scheme in SCHEME_ORDER:
            assert scheme.value in text

    def test_format_bars_scales_to_peak(self):
        rows = {"wl": {SchemeName.OPTIMAL: 1.0, SchemeName.SP: 2.0}}
        text = format_bars("Bars", rows, schemes=(SchemeName.SP,
                                                  SchemeName.OPTIMAL))
        sp_line = next(l for l in text.splitlines() if "sp" in l)
        opt_line = next(l for l in text.splitlines() if "optimal" in l)
        assert sp_line.count("#") > opt_line.count("#")
        assert "2.000" in sp_line

    def test_tables_render(self):
        config = paper_machine_config()
        assert "Table 1" in format_table1(config)
        assert "Table 2" in format_table2(config)
        assert "Table 3" in format_table3()


class TestSimulationResultSerialization:
    def test_to_dict_round_trips_through_json(self):
        import json
        result = fake_result("wl", SchemeName.TXCACHE, 1234)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["cycles"] == 1234
        assert data["scheme"] == "txcache"
        assert data["ipc"] == pytest.approx(result.ipc)

    def test_to_dict_with_raw_stats(self):
        result = fake_result("wl", SchemeName.SP, 10)
        result.raw_stats["x"] = 1.0
        data = result.to_dict(include_raw=True)
        assert data["raw_stats"] == {"x": 1.0}
