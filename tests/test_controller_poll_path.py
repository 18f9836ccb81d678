"""The memory controller's one poll path and its two NVM shortcuts.

While a queue holds work and no candidate bank is free, the controller
re-arms a scheduler tick (a *poll*) at the earliest cycle any bank
frees up.  For refresh-free NVM banks two facts are cached between
polls: a failed scan of an unchanged queue (``_scan_memo``) and the
earliest bank-free cycle (``_earliest``).  Both are pure shortcuts.

* **Unit tests** pin when the memo is written, when it stops applying,
  and where a failed poll re-arms.
* **Differential tests** run whole experiments, a crash sweep, litmus
  programs and random fault-injection configs twice — memoized and on
  the exact per-tick path (the ``exact_polls`` fixture) — and require
  every metric and raw stat counter to match.
* **Census** pins the event and poll counts of the ``sps/sp`` spot
  point quoted in ``docs/architecture.md``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    FaultConfig,
    paper_machine_config,
    small_machine_config,
)
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, MemReqType, MemRequest
from repro.memory.controller import MemoryController
from repro.sim.runner import make_traces, run_experiment
from repro.sim.system import System

FREQ = 2.0


def _controller(config):
    sim = Simulator()
    ctrl = MemoryController(sim, config, Stats().scoped(config.name), FREQ)
    return sim, ctrl


def _same_bank_writes(ctrl, base, count=3):
    """``count`` writes to distinct rows of one bank."""
    stride = ctrl.config.num_banks * 64 * 1000
    for i in range(count):
        ctrl.enqueue(MemRequest(addr=base + i * stride,
                                req_type=MemReqType.WRITE))
    banks = {request.bank for request in ctrl.write_queue.entries}
    assert len(banks) == 1
    return banks.pop()


# ----------------------------------------------------------------------
# Unit tests
# ----------------------------------------------------------------------

def test_failed_nvm_scan_memoizes_the_first_bank_free_cycle():
    sim, ctrl = _controller(paper_machine_config().nvm)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)  # first write in service, the other two wait
    queue = ctrl.write_queue
    assert len(queue.entries) == 2
    assert ctrl._scan_memo == {queue.name: (queue.version, bank.busy_until)}


def test_memoized_scan_holds_until_the_horizon_then_rescans():
    sim, ctrl = _controller(paper_machine_config().nvm)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    queue = ctrl.write_queue
    horizon = bank.busy_until
    assert ctrl._scan(queue, horizon - 1) is None
    assert ctrl._scan(queue, horizon) is queue.entries[0]


def test_new_request_to_a_free_bank_is_not_hidden_by_the_memo():
    """Enqueueing bumps the queue version, so a memo taken before the
    new request arrived no longer applies to the queue."""
    sim, ctrl = _controller(paper_machine_config().nvm)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    assert ctrl._scan_memo
    request = MemRequest(addr=NVM_BASE + 64, req_type=MemReqType.WRITE)
    ctrl.enqueue(request)
    assert request.bank is not bank
    sim.run(until=10)
    assert request not in ctrl.write_queue.entries
    assert request.bank.busy_until > 10


def test_service_clears_the_memo_and_the_cached_horizon():
    sim, ctrl = _controller(paper_machine_config().nvm)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    assert ctrl._scan_memo and ctrl._earliest is not None
    sim.run(until=bank.busy_until)  # the second write enters service
    assert len(ctrl.write_queue.entries) == 1
    assert ctrl._scan_memo == {}
    assert ctrl._earliest is None


def test_dram_scans_are_never_memoized():
    """Refresh catch-up makes a DRAM scan impure, so DRAM keeps the
    exact per-tick path."""
    sim, ctrl = _controller(paper_machine_config().dram)
    assert not ctrl._no_refresh
    _same_bank_writes(ctrl, 0)
    while sim.step():
        assert ctrl._scan_memo == {}
        assert ctrl._earliest is None


def test_failed_poll_rearms_next_cycle_while_another_bank_is_free():
    sim, ctrl = _controller(paper_machine_config().nvm)
    _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    assert ctrl._tick_at == 4


def test_failed_poll_sleeps_until_a_bank_frees_when_every_bank_is_busy():
    config = replace(paper_machine_config().nvm, num_ranks=1,
                     banks_per_rank=1)
    sim, ctrl = _controller(config)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    assert ctrl._tick_at == bank.busy_until == ctrl.banks.earliest_available()


# ----------------------------------------------------------------------
# Differential tests: the memoized path is the exact path.
# ----------------------------------------------------------------------

def _experiment(workload, scheme, config=None, operations=10, seed=7):
    result = run_experiment(workload, scheme,
                            config=config or small_machine_config(num_cores=2),
                            operations=operations, seed=seed)
    return result.to_dict(include_raw=True)


@pytest.mark.parametrize("scheme", ["optimal", "sp", "kiln", "txcache",
                                    "undo_log", "redo_log", "hybrid_dram"])
@pytest.mark.parametrize("workload", ["hashtable", "sps", "graph"])
def test_experiment_identical_on_exact_polls(exact_polls, workload, scheme):
    """Every metric and raw stat counter matches: the memo is a speed
    shortcut, not a modelling change."""
    assert _experiment(workload, scheme) == \
        exact_polls(_experiment, workload, scheme)


def test_crash_sweep_identical_on_exact_polls(exact_polls):
    """Crash sweeps re-run the system to mid-execution cycles and diff
    durable images — every crash fraction's report must agree."""
    from repro.sim.crash import crash_sweep

    def sweep():
        return crash_sweep("hashtable", "txcache",
                           fractions=(0.25, 0.5, 0.9),
                           num_cores=2, operations=12, seed=11)

    assert sweep() == exact_polls(sweep)


@pytest.mark.parametrize("scheme", ["sp", "kiln", "txcache"])
def test_litmus_program_identical_on_exact_polls(exact_polls, scheme):
    """An every-cycle litmus crash sweep (the stepped single-simulation
    runner) reports identical consistency outcomes."""
    from repro.litmus.generator import message_passing
    from repro.litmus.runner import run_litmus

    assert run_litmus(message_passing(), scheme) == \
        exact_polls(run_litmus, message_passing(), scheme)


_RATES = st.floats(min_value=0.01, max_value=0.3,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=10, deadline=None)
@given(
    nvm_write_fail_rate=_RATES,
    ack_loss_rate=_RATES.map(lambda r: r / 3),
    ack_duplicate_rate=_RATES.map(lambda r: r / 3),
    tc_bit_flip_rate=st.floats(min_value=1e-6, max_value=1e-4,
                               allow_nan=False, allow_infinity=False),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fault_injection_identical_on_exact_polls(
        exact_polls, nvm_write_fail_rate, ack_loss_rate, ack_duplicate_rate,
        tc_bit_flip_rate, fault_seed):
    """Random nonzero fault rates: every retry, remap, dropped or
    duplicated ack and ECC event is counted identically.  Write retries
    reach ``_service`` outside any scheduler tick, which is exactly
    where a memo could go stale."""
    faults = FaultConfig(
        seed=fault_seed,
        nvm_write_fail_rate=nvm_write_fail_rate,
        ack_loss_rate=ack_loss_rate,
        ack_duplicate_rate=ack_duplicate_rate,
        tc_bit_flip_rate=tc_bit_flip_rate,
    )
    config = replace(small_machine_config(num_cores=2), faults=faults)
    args = ("hashtable", "txcache", config, 10, 13)
    assert _experiment(*args) == exact_polls(_experiment, *args)


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------

def test_spot_point_event_and_poll_census(monkeypatch):
    """``sps/sp``, 2 cores, 30 operations, seed 42: 212,808 events, of
    which 190,881 are controller polls."""
    polls = 0
    tick = MemoryController._tick

    def counted_tick(self):
        nonlocal polls
        polls += 1
        tick(self)

    monkeypatch.setattr(MemoryController, "_tick", counted_tick)
    system = System(small_machine_config(num_cores=2), "sp")
    system.load_traces(make_traces("sps", 2, 30, seed=42))
    system.run()
    assert system.done
    assert (system.events_executed, polls) == (212_808, 190_881)
