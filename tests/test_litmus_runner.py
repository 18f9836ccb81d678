"""The litmus engine end to end: stepped sweeps, the broken scheme,
minimization, fault composition, and the serve/CLI surfaces."""

import json
from dataclasses import replace

import pytest

import repro.litmus.runner as runner
from repro.cli import main
from repro.common.config import FaultConfig, small_machine_config
from repro.litmus import (
    BROKEN_COMMIT,
    CLASSIC_SHAPES,
    LitmusProgram,
    minimize_violation,
    run_litmus,
    run_litmus_matrix,
)
from repro.litmus.generator import (
    default_suite,
    message_passing,
    private_chain,
)
from repro.litmus.oracle import check_membership, tx_summaries
from repro.litmus.runner import MAX_VIOLATION_RECORDS, iter_crash_states
from repro.persistence import scheme_names
from repro.serve.protocol import ProtocolError, parse_request
from repro.sim.parallel import LitmusPoint
from repro.sim.system import System

SCHEMES = ("sp", "kiln", "txcache")


class TestCleanMatrix:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_classic_shapes_are_consistent_at_every_cycle(self, scheme):
        for shape in CLASSIC_SHAPES:
            result = run_litmus(shape(), scheme)
            assert result.consistent, (
                f"{result.program}/{scheme}: {result.first_violation}")
            # the sweep actually covered the whole run
            assert result.crash_cycles == result.total_cycles + 1
            assert 0 < result.states_checked <= result.crash_cycles

    def test_check_every_stride_covers_fewer_states(self):
        program = message_passing()
        dense = run_litmus(program, "txcache")
        strided = run_litmus(program, "txcache", check_every=8)
        assert strided.consistent
        assert strided.states_checked < dense.states_checked

    def test_matrix_report_aggregates(self):
        report = run_litmus_matrix([message_passing(), private_chain()],
                                   SCHEMES)
        assert report.total_runs == 6
        assert report.consistent_runs == 6
        assert report.violations == []
        assert "6 runs" in report.format()


class TestSteppedStatesMatchFreshRuns:
    """Soundness of the single-simulation sweep: the state the stepped
    runner checks at cycle C equals what a fresh simulation paused at
    C reports — for every scheme's recovery model."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_differential_at_sampled_cycles(self, scheme):
        program = message_passing()
        config = small_machine_config(num_cores=program.num_cores)

        stepped = System(config, scheme)
        stepped.load_traces(program.to_traces())
        states = {cycle: (committed, dict(recovered))
                  for cycle, committed, recovered
                  in iter_crash_states(stepped)}

        samples = sorted(states)[:: max(1, len(states) // 12)]
        for cycle in samples:
            fresh = System(config, scheme)
            fresh.load_traces(program.to_traces())
            fresh.run(until=cycle)
            assert fresh.scheme.durably_committed(cycle) == \
                states[cycle][0], f"committed diverged @ {cycle}"
            assert fresh.scheme.durable_lines(cycle) == \
                states[cycle][1], f"image diverged @ {cycle}"


def _every_cycle_states(system):
    """Reference stepper without the dedup: pause and read the recovery
    model at every single cycle."""
    cycle = 0
    while True:
        system.run(until=cycle)
        yield (cycle, system.scheme.durably_committed(cycle),
               system.scheme.durable_lines(cycle))
        if system.sim.next_time() is None:
            return
        cycle += 1


class TestDedupLosesNothing:
    """The stepper checks a state only where an event ran and jumps over
    the cycles in between.  Against a stepper that checks every cycle,
    each cycle's state — and so its oracle verdict — must be the one
    the last checked state before it reported, on a scheme the oracle
    catches."""

    def test_broken_commit_verdicts_match_every_cycle_checks(self):
        config = small_machine_config(num_cores=2)
        for program in default_suite():
            traces = program.to_traces()
            summaries = tx_summaries(traces)

            def states(stepper):
                system = System(config, BROKEN_COMMIT)
                system.load_traces(traces)
                return list(stepper(system))

            reference = states(_every_cycle_states)
            deduped = {cycle: (committed, recovered)
                       for cycle, committed, recovered
                       in states(iter_crash_states)}
            assert len(deduped) < len(reference)
            latest = None
            for cycle, committed, recovered in reference:
                latest = deduped.get(cycle, latest)
                assert (committed, recovered) == latest, \
                    f"{program.name}: state missed @ {cycle}"
            assert any(check_membership(summaries, *state)
                       for state in deduped.values()), program.name


def _judge_every_state(program, scheme, config, *, check_every=1):
    """``run_litmus(...).to_dict()`` with the oracle called at every
    yielded state, no verdict reused."""
    traces = program.to_traces()
    summaries = tx_summaries(traces)
    system = System(config, scheme)
    system.load_traces(traces)
    states = violating = 0
    violations = []
    for cycle, committed, recovered in iter_crash_states(
            system, check_every=check_every):
        states += 1
        messages = check_membership(summaries, committed, recovered)
        if messages:
            violating += 1
            if len(violations) < MAX_VIOLATION_RECORDS:
                violations.append({"crash_cycle": cycle,
                                   "committed": sorted(committed),
                                   "messages": messages})
    return {"program": program.name, "fingerprint": program.fingerprint,
            "scheme": scheme, "total_cycles": system.sim.now,
            "crash_cycles": system.sim.now // check_every + 1,
            "states_checked": states, "violations": violations,
            "violating_cycles": violating,
            "faulty": config.faults.enabled}


def _state_changes(program, scheme, config):
    """``(all, image_only)``: how many yielded states differ from the
    one before them (the first counts), comparing recovered images in
    key order, and how many of those keep the commit set."""
    system = System(config, scheme)
    system.load_traces(program.to_traces())
    changes = image_only = 0
    last = None
    for _, committed, recovered in iter_crash_states(system):
        state = (committed, list(recovered.items()))
        if state != last:
            changes += 1
            image_only += last is not None and committed == last[0]
        last = state
    return changes, image_only


def _evicting_config(num_cores):
    """One-line direct-mapped caches: dirty home lines are written back
    to NVM mid-run, so raw-NVM recovery images change while the commit
    set stays put."""
    base = small_machine_config(num_cores=num_cores)
    return replace(base,
                   l1=replace(base.l1, size_bytes=64, assoc=1),
                   l2=replace(base.l2, size_bytes=64, assoc=1),
                   llc=replace(base.llc, size_bytes=128, assoc=1))


@pytest.fixture
def oracle_calls(monkeypatch):
    """The runner's oracle, counting its calls into the returned list."""
    calls = []

    def counting(*args):
        calls.append(1)
        return check_membership(*args)

    monkeypatch.setattr(runner, "check_membership", counting)
    return calls


class TestReusedVerdict:
    """The runner calls the oracle only when the crash state changed
    and reuses its messages otherwise; the result must be the one a
    verdict at every state gives."""

    @pytest.mark.parametrize("check_every", [1, 3])
    @pytest.mark.parametrize("scheme", scheme_names())
    def test_matches_a_verdict_at_every_state(self, scheme, check_every):
        for program in default_suite():
            config = small_machine_config(num_cores=program.num_cores)
            assert run_litmus(program, scheme,
                              check_every=check_every).to_dict() == \
                _judge_every_state(program, scheme, config,
                                   check_every=check_every), program.name

    def test_every_scheme_is_covered(self):
        assert BROKEN_COMMIT in scheme_names()

    def test_matches_under_injected_faults(self):
        faults = FaultConfig(seed=3, nvm_write_fail_rate=0.02,
                             ack_loss_rate=0.02, tc_bit_flip_rate=1e-3)
        for scheme in ("txcache", BROKEN_COMMIT):
            for program in default_suite()[:6]:
                config = replace(
                    small_machine_config(num_cores=program.num_cores),
                    faults=faults)
                assert run_litmus(program, scheme,
                                  fault_config=faults).to_dict() == \
                    _judge_every_state(program, scheme, config), \
                    program.name

    @pytest.mark.parametrize("scheme", ["optimal", BROKEN_COMMIT])
    def test_matches_when_the_image_changes_alone(self, scheme):
        image_only = 0
        for program in default_suite():
            config = _evicting_config(program.num_cores)
            assert run_litmus(program, scheme, config=config).to_dict() \
                == _judge_every_state(program, scheme, config), \
                program.name
            image_only += _state_changes(program, scheme, config)[1]
        assert image_only > 0

    @pytest.mark.parametrize("scheme, evicting", [
        ("sp", False), ("txcache", False), ("undo_log", False),
        (BROKEN_COMMIT, False), ("optimal", True), (BROKEN_COMMIT, True)])
    def test_oracle_runs_once_per_change_of_state(self, scheme, evicting,
                                                  oracle_calls):
        reused = False
        for program in default_suite()[:8]:
            config = (_evicting_config if evicting
                      else small_machine_config)(program.num_cores)
            oracle_calls.clear()
            result = run_litmus(program, scheme, config=config)
            assert len(oracle_calls) == \
                _state_changes(program, scheme, config)[0], program.name
            reused = reused or len(oracle_calls) < result.states_checked
        assert reused

    def test_reordered_equal_image_is_judged_again(self, monkeypatch,
                                                    oracle_calls):
        # two uncommitted writes leak; the leak pass reports them in
        # recovered key order, so equal images in another order get
        # their own messages
        program = message_passing()
        first, second = [tx.writes[0] for tx in
                         tx_summaries(program.to_traces())[0]]
        forward = dict([first, second])
        backward = dict([second, first])
        assert forward == backward

        def states(system, check_every=1):
            yield 0, set(), forward
            yield 1, set(), backward

        monkeypatch.setattr(runner, "iter_crash_states", states)
        result = run_litmus(program, "txcache")
        assert len(oracle_calls) == 2
        assert result.violating_cycles == 2
        one, two = (v["messages"] for v in result.violations)
        assert one == list(reversed(two)) and one != two


class TestBrokenScheme:
    def test_broken_commit_is_caught_on_every_classic_shape(self):
        for shape in CLASSIC_SHAPES:
            result = run_litmus(shape(), BROKEN_COMMIT)
            assert not result.consistent, result.program
            assert result.first_violation is not None

    def test_violation_minimizes_to_a_tiny_counterexample(self):
        small = minimize_violation(message_passing(), BROKEN_COMMIT)
        assert small.op_count <= 8
        small.validate()
        # still failing after the rename
        assert not run_litmus(small, BROKEN_COMMIT).consistent

    def test_minimizer_rejects_passing_programs(self):
        from repro.litmus import minimize_program

        with pytest.raises(ValueError, match="requires a failing"):
            minimize_program(message_passing(), lambda p: False)

    def test_broken_scheme_is_not_a_servable_scheme(self):
        with pytest.raises(ProtocolError, match="scheme must be one of"):
            parse_request({"kind": "litmus",
                           "program": message_passing().to_dict(),
                           "scheme": BROKEN_COMMIT,
                           "config": {"num_cores": 2}})


class TestFaultComposition:
    def test_consistent_under_injected_faults(self):
        faults = FaultConfig(seed=7, nvm_write_fail_rate=1e-3,
                             ack_loss_rate=1e-3, tc_bit_flip_rate=1e-4)
        report = run_litmus_matrix(
            [message_passing(), private_chain()], ["txcache"],
            fault_config=faults)
        assert report.total_runs == 2
        assert all(r.consistent for r in report.results), \
            report.violations
        assert all(r.faulty for r in report.results)

    def test_fault_seeds_differ_per_run(self):
        # the matrix derives per-run seeds chaos_sweep-style; two runs
        # of the same program must not share a fault timeline
        faults = FaultConfig(seed=0, nvm_write_fail_rate=0.05)
        program = message_passing()
        a = run_litmus(program, "txcache",
                       fault_config=FaultConfig(seed=0,
                                                nvm_write_fail_rate=0.05))
        b = run_litmus(program, "txcache",
                       fault_config=FaultConfig(seed=1,
                                                nvm_write_fail_rate=0.05))
        report = run_litmus_matrix([program, program], ["txcache"],
                                   fault_config=faults)
        assert [r.total_cycles for r in report.results] == \
            [a.total_cycles, b.total_cycles]


class TestServeProtocol:
    def request(self, **over):
        data = {"kind": "litmus",
                "program": message_passing().to_dict(),
                "scheme": "txcache",
                "config": {"num_cores": 2}}
        data.update(over)
        return data

    def test_parses_to_the_engine_identical_point(self):
        program = message_passing()
        parsed = parse_request(self.request()).point
        built = LitmusPoint(
            program=program.canonical_json(), scheme="txcache",
            config=small_machine_config(num_cores=2))
        assert parsed == built
        assert parsed.key == built.key

    def test_deadline_and_check_every(self):
        request = parse_request(self.request(check_every=4,
                                             deadline_ms=1500))
        assert request.point.check_every == 4
        assert request.deadline == 1.5

    def test_rejects_program_on_other_kinds(self):
        with pytest.raises(ProtocolError, match="only applies to litmus"):
            parse_request({"kind": "experiment", "workload": "sps",
                           "scheme": "txcache",
                           "program": message_passing().to_dict()})

    def test_rejects_workload_keys_on_litmus(self):
        with pytest.raises(ProtocolError, match="does not apply"):
            parse_request(self.request(workload="sps"))

    def test_rejects_missing_program(self):
        data = self.request()
        del data["program"]
        with pytest.raises(ProtocolError, match="requires a program"):
            parse_request(data)

    def test_rejects_malformed_program(self):
        bad = {"name": "x", "cores": [[{"op": "store", "line": 0}]]}
        with pytest.raises(ProtocolError,
                           match="store outside a transaction"):
            parse_request(self.request(program=bad))

    def test_rejects_too_few_cores(self):
        with pytest.raises(ProtocolError, match="needs 2 cores"):
            parse_request(self.request(config={"num_cores": 1}))

    def test_litmus_point_roundtrips_through_execute(self):
        program = private_chain()
        point = LitmusPoint(
            program=program.canonical_json(), scheme="kiln",
            config=small_machine_config(num_cores=2))
        payload = point.execute()
        restored = LitmusPoint.deserialize(json.loads(json.dumps(payload)))
        assert restored.consistent
        assert restored.program == program.name


class TestCli:
    def test_small_clean_matrix_exits_zero(self, capsys):
        assert main(["litmus", "--programs", "6",
                     "--schemes", "kiln", "txcache"]) == 0
        out = capsys.readouterr().out
        assert "litmus matrix: 12 runs" in out
        assert "OK" in out and "VIOLATION" not in out

    def test_broken_scheme_exits_nonzero_and_minimizes(self, capsys):
        code = main(["litmus", "--programs", "1",
                     "--schemes", "broken_commit", "--minimize"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "minimized mp/broken_commit" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["litmus", "--programs", "2",
                     "--schemes", "txcache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["matrix"]) == 2
        assert payload["matrix"][0]["violating_cycles"] == 0

    def test_chaos_flag_adds_fault_subset(self, capsys):
        assert main(["litmus", "--programs", "2",
                     "--schemes", "kiln", "--chaos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["chaos"]) == 2
        assert all(r["faulty"] for r in payload["chaos"])
        assert not any(r["faulty"] for r in payload["matrix"])
