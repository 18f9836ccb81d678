"""Unit tests for the discrete-event kernel.

The example tests pin each clause of the :class:`Simulator` contract;
the hypothesis tests at the end check random schedule programs against
a tiny sorted-by-(time, seq) model of the same contract.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.event import SimulationError, Simulator, default_kernel


@pytest.fixture
def sim():
    return Simulator()


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(10, order.append, "late")
    sim.schedule(1, order.append, "early")
    sim.schedule(5, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_same_cycle_events_run_in_insertion_order(sim):
    order = []
    for tag in range(8):
        sim.schedule(3, order.append, tag)
    sim.run()
    assert order == list(range(8))


def test_now_advances_to_last_event(sim):
    sim.schedule(42, lambda: None)
    sim.run()
    assert sim.now == 42


def test_schedule_during_run_is_executed(sim):
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            sim.schedule(2, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 6


def test_run_until_stops_before_future_events(sim):
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(50, fired.append, "b")
    sim.run(until=10)
    assert fired == ["a"]
    assert sim.now == 10
    sim.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_max_events_guard_raises(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_queued_events(sim):
    assert sim.pending() == 0
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending() == 2


def test_run_returns_executed_count(sim):
    for delay in (1, 1, 7):
        sim.schedule(delay, lambda: None)
    assert sim.run() == 3


def test_advance_hook_fires_between_time_steps(sim):
    """The hook fires once per distinct timestamp, after the clock
    moves and before any callback at the new time — even when several
    events share a cycle."""
    log = []
    sim.set_advance_hook(lambda t: log.append(("hook", t)))
    for tag in ("a", "b"):
        sim.schedule(3, lambda tag=tag: log.append(("ev3", tag)))
    sim.schedule(5, lambda: log.append(("ev5", "c")))
    sim.run()
    assert log == [("hook", 3), ("ev3", "a"), ("ev3", "b"),
                   ("hook", 5), ("ev5", "c")]


def test_advance_hook_not_fired_on_until_jump(sim):
    """run(until=...) jumping the clock past the last event is a quiet
    jump: the hook only sees times at which events fire."""
    log = []
    sim.schedule(2, lambda: None)
    sim.set_advance_hook(lambda t: log.append(t))
    sim.run(until=100)
    assert log == [2]
    assert sim.now == 100


# ---------------------------------------------------------------------------
# Integral-time validation (regression: `schedule` used to truncate
# floats via int(), silently firing 1.5-cycle delays one cycle early).

def test_fractional_delay_rejected(sim):
    with pytest.raises(SimulationError, match="non-integral"):
        sim.schedule(1.5, lambda: None)
    assert sim.pending() == 0


def test_fractional_absolute_time_rejected(sim):
    with pytest.raises(SimulationError, match="non-integral"):
        sim.schedule_at(2.25, lambda: None)
    assert sim.pending() == 0


def test_integral_float_times_accepted(sim):
    """Whole-number floats (e.g. from ns->cycle arithmetic) are fine
    and behave exactly like their int counterparts."""
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule_at(1.0, order.append, "a")
    sim.run()
    assert order == ["a", "b"]
    assert sim.now == 2
    assert isinstance(sim.now, int)


def test_non_numeric_time_rejected(sim):
    with pytest.raises(SimulationError, match="integral number of cycles"):
        sim.schedule("soon", lambda: None)


def test_max_events_abort_leaves_the_rest_queued(sim):
    """A mid-cycle max_events abort removes only the events that ran,
    so a resumed run() continues from the right place."""
    order = []
    for tag in range(6):
        sim.schedule(1, order.append, tag)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert order == [0, 1, 2, 3]
    assert sim.pending() == 2
    sim.run()
    assert order == list(range(6))


def test_max_events_equal_to_event_count_does_not_raise(sim):
    """The valve trips only when *more* than max_events fire."""
    for delay in range(5):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=5) == 5
    assert sim.pending() == 0


def test_events_at_exactly_until_still_run(sim):
    fired = []
    sim.schedule(10, fired.append, "edge")
    sim.schedule(11, fired.append, "after")
    assert sim.run(until=10) == 1
    assert fired == ["edge"]
    assert sim.pending() == 1


def test_run_until_in_the_past_keeps_the_clock(sim):
    sim.schedule(20, lambda: None)
    sim.run()
    assert sim.run(until=5) == 0
    assert sim.now == 20


def test_run_on_empty_queue_returns_zero_and_keeps_the_clock(sim):
    assert sim.run() == 0
    assert sim.now == 0


def test_zero_delay_schedule_runs_after_queued_same_cycle_events(sim):
    """An event a callback schedules for the current cycle fires in the
    same cycle, after every event already queued for it."""
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "spawned")

    sim.schedule(4, first)
    sim.schedule(4, order.append, "second")
    sim.run()
    assert order == ["first", "second", "spawned"]
    assert sim.now == 4


def test_schedule_at_current_time_from_callback_fires_this_cycle(sim):
    times = []
    sim.schedule(7, lambda: sim.schedule_at(sim.now, times.append, "now"))
    sim.run()
    assert times == ["now"]
    assert sim.now == 7


def test_far_future_events_fire_in_order(sim):
    """Delays spanning several orders of magnitude still fire in
    (time, insertion) order."""
    order = []
    delays = [10**6, 3, 10**9, 500, 10**6, 0, 70_000]
    for tag, delay in enumerate(delays):
        sim.schedule(delay, order.append, tag)
    sim.run()
    assert order == sorted(range(len(delays)),
                           key=lambda tag: (delays[tag], tag))
    assert sim.now == 10**9


def test_step_fires_advance_hook_only_when_time_moves(sim):
    log = []
    sim.set_advance_hook(log.append)
    sim.schedule(2, lambda: None)
    sim.schedule(2, lambda: None)
    sim.schedule(9, lambda: None)
    while sim.step():
        pass
    assert log == [2, 9]


def test_advance_hook_can_be_removed(sim):
    log = []
    sim.set_advance_hook(log.append)
    sim.schedule(1, lambda: None)
    sim.run()
    sim.set_advance_hook(None)
    sim.schedule(1, lambda: None)
    sim.run()
    assert log == [1]
    assert sim.now == 2


def test_callback_receives_its_arguments(sim):
    seen = []
    sim.schedule(1, lambda *args: seen.append(args), "a", 2, None)
    sim.run()
    assert seen == [("a", 2, None)]


def test_next_time_is_none_on_an_empty_queue(sim):
    assert sim.next_time() is None
    sim.schedule(3, lambda: None)
    sim.run()
    assert sim.next_time() is None


def test_next_time_is_the_earliest_queued_event(sim):
    sim.schedule(9, lambda: None)
    sim.schedule(4, lambda: None)
    assert sim.next_time() == 4


def test_next_time_from_a_callback_sees_same_cycle_events(sim):
    """Inside an event, ``next_time() == now`` means more events are
    due this cycle; after the last one it points at the next cycle."""
    seen = []
    for _ in range(2):
        sim.schedule(5, lambda: seen.append((sim.now, sim.next_time())))
    sim.schedule(8, lambda: None)
    sim.run(until=5)
    assert seen == [(5, 5), (5, 8)]


def test_next_time_after_run_until(sim):
    sim.schedule(5, lambda: None)
    sim.schedule(12, lambda: None)
    sim.run(until=10)
    assert (sim.now, sim.next_time()) == (10, 12)


def test_next_time_after_a_max_events_abort(sim):
    for delay in (1, 1, 2, 3):
        sim.schedule(delay, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=1)
    assert (sim.now, sim.next_time()) == (1, 2)
    assert sim.pending() == 2


def test_default_kernel_is_heap():
    assert default_kernel() == "heap"


# ---------------------------------------------------------------------------
# Random schedule programs against a sorted-list model of the contract.

# A schedule node is (delay, children): when the node's event fires, it
# schedules each child relative to the firing time.  Recursion gives
# programs where callbacks schedule callbacks — the shape every
# simulator component has.
_DELAYS = st.integers(min_value=0, max_value=600)
_NODES = st.recursive(
    st.tuples(_DELAYS, st.just(())),
    lambda children: st.tuples(_DELAYS, st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)
_PROGRAMS = st.lists(_NODES, min_size=1, max_size=8)


def _execute(sim, program, untils=(), max_events=None):
    """Run ``program`` on ``sim``; return every observable the kernel
    contract promises (firing log, hook calls, counts, clock)."""
    firing_log = []
    hook_calls = []
    sim.set_advance_hook(hook_calls.append)
    labels = itertools.count()

    def fire(label, children):
        firing_log.append((sim.now, label))
        for child in children:
            schedule(child)

    def schedule(node):
        delay, children = node
        sim.schedule(delay, fire, next(labels), children)

    for node in program:
        schedule(node)
    executed = []
    aborted = False
    try:
        for until in untils:
            executed.append(sim.run(until=until))
        executed.append(sim.run(max_events=max_events))
    except SimulationError:
        aborted = True
    return {
        "firing_log": firing_log,
        "hook_calls": hook_calls,
        "executed": executed,
        "aborted": aborted,
        "now": sim.now,
        "pending": sim.pending(),
    }


class _SortedModel:
    """The kernel contract in its plainest form: a list of
    ``(time, seq, fn, args)`` re-sorted on every pop."""

    def __init__(self):
        self.now = 0
        self._events = []
        self._seq = 0
        self._hook = None

    def set_advance_hook(self, hook):
        self._hook = hook

    def schedule(self, delay, fn, *args):
        self._events.append((self.now + delay, self._seq, fn, args))
        self._seq += 1

    def pending(self):
        return len(self._events)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._events:
            self._events.sort(key=lambda event: event[:2])
            time, _seq, fn, args = self._events[0]
            if until is not None and time > until:
                break
            del self._events[0]
            if time > self.now:
                self.now = time
                self._hook(time)
            fn(*args)
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError("max_events")
        if until is not None and self.now < until:
            self.now = until
        return executed


def _assert_matches_model(program, **kwargs):
    assert _execute(Simulator(), program, **kwargs) == \
        _execute(_SortedModel(), program, **kwargs)


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS)
def test_random_programs_match_model_full_drain(program):
    _assert_matches_model(program)


@settings(max_examples=200, deadline=None)
@given(
    program=_PROGRAMS,
    untils=st.lists(st.integers(min_value=0, max_value=2000),
                    max_size=3).map(sorted),
)
def test_random_programs_match_model_segmented_run(program, untils):
    """run(until=...) segments, quiet clock jumps included, leave the
    kernel in the model's state."""
    _assert_matches_model(program, untils=untils)


@settings(max_examples=100, deadline=None)
@given(program=_PROGRAMS, max_events=st.integers(min_value=1, max_value=30))
def test_random_programs_match_model_max_events_abort(program, max_events):
    """The livelock valve trips after the same event as the model,
    leaving the same partial firing log, clock and queue."""
    _assert_matches_model(program, max_events=max_events)
