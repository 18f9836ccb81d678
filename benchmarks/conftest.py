"""Shared fixtures for the figure/table regeneration benches.

The paper's Figs. 6-10 all come from one set of experiment runs, so the
benches share two session-scoped grids:

* ``paper_grid`` — the eviction-pressure regime (32 KB scaled LLC):
  Figs. 6, 7, 9 and the TC-stall text claim.  Under pressure every
  scheme's NVM write traffic is in steady state, which Fig. 9 needs.
* ``pressure_grid`` — the reuse regime (128 KB scaled LLC, footprints
  just at capacity): Figs. 8 and 10, which need LLC hits to exist so
  miss-rate and load-latency deltas are observable.

Set ``REPRO_BENCH_OPS`` to change the per-core operation count (default
300; larger runs sharpen steady-state numbers at linear cost).
``REPRO_BENCH_JOBS`` fans the grid's (workload × scheme) points out
over that many worker processes, and ``REPRO_BENCH_CACHE`` names an
on-disk result-cache directory so repeated bench runs skip
already-computed points — both produce results identical to the
single-job uncached defaults (the engine's determinism contract).

Every figure bench writes its rendered table into
``benchmarks/output/`` so EXPERIMENTS.md can cite the exact output.
"""

import os
import pathlib
from dataclasses import replace

import pytest

from repro.common.config import small_machine_config
from repro.sim.parallel import ExperimentEngine
from repro.sim.runner import ALL_SCHEMES, run_grid
from repro.workloads import PAPER_WORKLOADS

OPS = int(os.environ.get("REPRO_BENCH_OPS", "300"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def _grid(config):
    return run_grid(PAPER_WORKLOADS, ALL_SCHEMES, config, operations=OPS,
                    engine=ExperimentEngine(jobs=JOBS, cache_dir=CACHE_DIR))


@pytest.fixture(scope="session")
def paper_grid():
    """Figs. 6/7/9 regime: steady-state NVM eviction traffic."""
    return _grid(small_machine_config(num_cores=4))


@pytest.fixture(scope="session")
def pressure_grid():
    """Figs. 8/10 regime: LLC reuse exists, pinning/blocking visible."""
    base = small_machine_config(num_cores=4)
    return _grid(replace(base, llc=replace(base.llc, size_bytes=128 * 1024)))


@pytest.fixture(scope="session")
def save_output():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUTPUT_DIR / name).write_text(text + "\n")

    return _save
