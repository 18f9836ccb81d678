"""The memory controller's one poll path and its NVM shortcuts.

While a queue holds work and no candidate bank is free, the controller
re-arms a scheduler tick (a *poll*) at the earliest cycle any bank
frees up, then every cycle until a scan succeeds.  For refresh-free NVM
banks three shortcuts apply: a failed scan of an unchanged queue is
memoized (``_scan_memo``), the earliest bank-free cycle is cached
(``_earliest``), and the chain of failing polls is skipped — one tick
lands at the first candidate bank-free cycle or the next queued event,
whichever is first, and the skipped polls' starvation grants are
counted in closed form (``_grants_from``).

* **Unit tests** pin when the memo is written, when it stops applying,
  where a failed poll lands and how skipped grants are settled.
* **Differential tests** run whole experiments, a crash sweep, litmus
  programs and random fault-injection configs twice — with the
  shortcuts and on the exact per-tick path (the ``exact_polls``
  fixture) — and require every metric and raw stat counter to match.
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


def test_failed_poll_lands_at_the_next_event_or_the_candidate_horizon():
    """Another bank is idle, so the exact chain would poll every cycle;
    the jump lands at ``min(next_time, horizon)`` instead."""
    sim, ctrl = _controller(paper_machine_config().nvm)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.schedule_at(40, lambda: None)
    sim.run(until=3)  # the poll at 3 fails with other banks idle
    assert ctrl.banks.earliest_available() <= 4
    horizon = ctrl._scan_memo[ctrl.write_queue.name][1]
    assert horizon == bank.busy_until > 40
    assert ctrl._tick_at == min(sim.next_time(), horizon) == 40
    sim.run(until=40)  # the landing fails again; nothing else is due
    assert ctrl._tick_at == min(sim.next_time(), horizon) == horizon


def test_pending_same_cycle_event_prevents_the_jump():
    sim, ctrl = _controller(paper_machine_config().nvm)
    _same_bank_writes(ctrl, NVM_BASE)
    # queued at cycle 2, so it runs after the controller's poll at 3
    sim.schedule_at(2, sim.schedule_at, 3, lambda: None)
    sim.run(until=3)
    assert ctrl._tick_at == 4
    sim.run(until=4)
    assert ctrl._tick_at == sim.next_time() > 5


def test_failed_poll_sleeps_until_a_bank_frees_when_every_bank_is_busy():
    config = replace(paper_machine_config().nvm, num_ranks=1,
                     banks_per_rank=1)
    sim, ctrl = _controller(config)
    bank = _same_bank_writes(ctrl, NVM_BASE)
    sim.run(until=3)
    assert ctrl._tick_at == bank.busy_until == ctrl.banks.earliest_available()


def _starved_write(ctrl):
    """One write queued at cycle 0 to a bank held busy until cycle 1000
    by an earlier access: no write is serviced, so every poll after
    cycle ``WRITE_STARVATION_LIMIT`` grants a starved write."""
    request = MemRequest(addr=NVM_BASE, req_type=MemReqType.WRITE)
    bank, _row = ctrl.banks.locate(request.line)
    bank.busy_until = 1000
    ctrl.banks.note_service(bank)
    ctrl.enqueue(request)


def _grants(ctrl):
    return ctrl.stats.counter("write.starvation_grants")


def _starved_run(pause=None):
    """Grant counts of the starved-write scenario: at ``pause`` (after
    an enqueue to an idle bank there, when given) and at the end."""
    sim, ctrl = _controller(paper_machine_config().nvm)
    _starved_write(ctrl)
    at_pause = None
    if pause is not None:
        sim.run(until=pause)
        ctrl.enqueue(MemRequest(addr=NVM_BASE + 64,
                                req_type=MemReqType.READ))
        at_pause = _grants(ctrl)
    sim.run()
    return at_pause, _grants(ctrl)


def test_grants_of_a_jump_that_crosses_the_starvation_threshold():
    """The poll at 1 fails and the jump lands at 1000.  The skipped
    polls at 251..999 and the landing at 1000 each grant the write."""
    limit = MemoryController.WRITE_STARVATION_LIMIT
    sim, ctrl = _controller(paper_machine_config().nvm)
    _starved_write(ctrl)
    sim.run(until=1)
    assert ctrl._tick_at == 1000
    assert ctrl._grants_from == limit + 1
    sim.run(until=1000)
    assert ctrl._grants_from is None
    assert _grants(ctrl) == 1000 - limit


def test_grants_match_the_exact_poll_chain(exact_polls):
    assert _starved_run() == exact_polls(_starved_run) == (None, 750)


@pytest.mark.parametrize("pause", [100, 251, 600, 998])
def test_enqueue_after_a_pause_settles_only_the_polls_run_so_far(
        exact_polls, pause):
    """An enqueue that cuts a pending jump short (only possible between
    ``run(until=...)`` calls) settles the skipped polls at cycles up to
    the pause, exactly as many as the per-tick chain had run."""
    limit = MemoryController.WRITE_STARVATION_LIMIT
    at_pause, total = _starved_run(pause)
    assert at_pause == max(0, pause - limit)
    assert (at_pause, total) == exact_polls(_starved_run, pause)


def test_dram_controllers_never_jump():
    """Refresh catch-up makes DRAM polls impure: a failed DRAM poll
    re-arms at the next cycle while another bank is idle."""
    sim, ctrl = _controller(paper_machine_config().dram)
    _same_bank_writes(ctrl, 0)
    sim.run(until=3)
    assert ctrl._tick_at == 4
    while sim.step():
        assert ctrl._grants_from is None
        if ctrl._tick_at is not None:
            assert ctrl._tick_at <= max(sim.now + ctrl._period,
                                        ctrl.banks.earliest_available())


# ----------------------------------------------------------------------
# Differential tests: the shortcut path is the exact path.
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
    runner) reports identical consistency outcomes.  Only the number of
    event-bearing states checked may differ, and only downward: cycles
    whose sole events were skipped polls no longer count as new
    states."""
    from repro.litmus.generator import message_passing
    from repro.litmus.runner import run_litmus

    fast = run_litmus(message_passing(), scheme).to_dict()
    exact = exact_polls(run_litmus, message_passing(), scheme).to_dict()
    assert fast.pop("states_checked") <= exact.pop("states_checked")
    assert fast == exact


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
    """``sps/sp``, 2 cores, 30 operations, seed 42: 42,289 events, of
    which 20,362 are controller polls (212,808 and 190,881 on the exact
    per-tick chain), and the same 216,191 simulated cycles."""
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
    assert (system.events_executed, polls) == (42_289, 20_362)
    assert system.cycles == 216_191
