"""Chaos harness: crash injection × fault injection, checked end to end.

The crash tests (:mod:`repro.sim.crash`) prove failure atomicity under
*clean* power cuts on *perfect* hardware.  The chaos harness removes
the second assumption: it sweeps fault-injection configurations
(stochastic NVM write failures, lost/delayed/duplicated acks, TC bit
flips) × crash fractions × schemes × workloads, runs every combination
through the same legal-persist-set oracle as the crash and litmus
harnesses (:func:`~repro.sim.crash.crash_and_check`, built on
:mod:`repro.litmus.oracle`), and aggregates the resilience
machinery's activity — retries,
remaps, ack timeouts/reissues, ECC corrections, COW degradations — so
a sweep shows not only *that* every run recovered consistently but
*what it cost*.

Determinism: the injector's per-site streams derive from
``FaultConfig.seed``, so a chaos sweep is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from ..common.config import FaultConfig, MachineConfig, small_machine_config
from ..common.types import SchemeName
from ..cpu.trace import Trace
from .crash import crash_and_check
from .system import System

#: stats counters surfaced per run: (report key, counter name)
FAULT_COUNTERS = (
    ("nvm_write_retries", "mem.nvm.write.retries"),
    ("nvm_write_remaps", "mem.nvm.write.remaps"),
    ("acks_dropped", "mem.nvm.ack.dropped"),
    ("acks_delayed", "mem.nvm.ack.delayed"),
    ("acks_duplicated", "mem.nvm.ack.duplicated"),
    ("ack_timeouts", "tc.ack.timeouts"),
    ("ack_reissues", "tc.ack.reissues"),
    ("unmatched_acks", None),   # summed across per-core TC scopes
    ("ecc_corrected", None),    # summed across per-core TC scopes
    ("ecc_uncorrectable", None),
    ("ecc_refills", "tc.ecc.refills"),
    ("ecc_fallbacks", "scheme.txcache.ecc_fallbacks"),
    ("degraded_fallbacks", "scheme.txcache.degraded_fallbacks"),
)


@dataclass
class ChaosRun:
    """Outcome of one (workload, scheme, fault config, crash point)."""

    workload: str
    scheme: SchemeName
    crash_cycle: int
    total_cycles: int
    committed: int
    recovered_lines: int
    violations: List[str]
    fault_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (for the parallel engine's cache)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme.value,
            "crash_cycle": self.crash_cycle,
            "total_cycles": self.total_cycles,
            "committed": self.committed,
            "recovered_lines": self.recovered_lines,
            "violations": list(self.violations),
            "fault_stats": dict(self.fault_stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosRun":
        return cls(
            workload=str(data["workload"]),
            scheme=SchemeName.parse(data["scheme"]),
            crash_cycle=int(data["crash_cycle"]),
            total_cycles=int(data["total_cycles"]),
            committed=int(data["committed"]),
            recovered_lines=int(data["recovered_lines"]),
            violations=list(data["violations"]),
            fault_stats=dict(data["fault_stats"]),
        )


@dataclass
class ChaosReport:
    """Aggregate of a chaos sweep."""

    fault_config: FaultConfig
    runs: List[ChaosRun] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    @property
    def violations(self) -> List[str]:
        out = []
        for run in self.runs:
            out.extend(
                f"{run.workload}/{run.scheme.value}@{run.crash_cycle}: {v}"
                for v in run.violations)
        return out

    @property
    def survived(self) -> int:
        return sum(run.consistent for run in self.runs)

    def totals(self) -> Dict[str, float]:
        """Summed fault/resilience counters over every run."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            for name, value in run.fault_stats.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def format(self) -> str:
        cfg = self.fault_config
        lines = [
            "chaos sweep: "
            f"write-fail={cfg.nvm_write_fail_rate:g} "
            f"ack-loss={cfg.ack_loss_rate:g} "
            f"ack-delay={cfg.ack_delay_rate:g} "
            f"ack-dup={cfg.ack_duplicate_rate:g} "
            f"bit-flip={cfg.tc_bit_flip_rate:g} seed={cfg.seed}",
            f"  runs: {self.total_runs}, consistent: {self.survived}, "
            f"torn: {self.total_runs - self.survived}",
        ]
        totals = self.totals()
        active = {k: v for k, v in totals.items() if v}
        if active:
            lines.append("  resilience activity: " + ", ".join(
                f"{name}={value:.0f}" for name, value in sorted(active.items())))
        else:
            lines.append("  resilience activity: none (fault-free run)")
        for run in self.runs:
            status = "CONSISTENT" if run.consistent else "TORN"
            lines.append(
                f"  {run.workload:<10} {run.scheme.value:<8} "
                f"@ {run.crash_cycle:>8}/{run.total_cycles:<8} "
                f"{run.committed:>4} tx {run.recovered_lines:>5} lines "
                f"-> {status}")
            lines.extend(f"      {v}" for v in run.violations[:3])
        return "\n".join(lines)


def _collect_fault_stats(system: System) -> Dict[str, float]:
    stats = system.stats
    out: Dict[str, float] = {}
    for key, counter in FAULT_COUNTERS:
        if counter is not None:
            out[key] = stats.counter(counter)
    num_cores = system.config.num_cores
    out["unmatched_acks"] = sum(
        stats.counter(f"tc.{i}.ack.unmatched") for i in range(num_cores))
    out["ecc_corrected"] = sum(
        stats.counter(f"tc.{i}.ecc.corrected") for i in range(num_cores))
    out["ecc_uncorrectable"] = sum(
        stats.counter(f"tc.{i}.ecc.uncorrectable") for i in range(num_cores))
    return out


def run_chaos_crash(
    workload: str,
    scheme: Union[str, SchemeName],
    crash_cycle: int,
    traces: Sequence[Trace],
    config: MachineConfig,
    total_cycles: Optional[int] = None,
    obs=None,
) -> ChaosRun:
    """One crash run under fault injection, checked for atomicity."""
    system = System(config, scheme, obs=obs)
    system.load_traces(traces)
    committed, recovered, violations = crash_and_check(
        system, traces, crash_cycle)
    return ChaosRun(
        workload=workload,
        scheme=SchemeName.parse(scheme),
        crash_cycle=crash_cycle,
        total_cycles=total_cycles or crash_cycle,
        committed=len(committed),
        recovered_lines=len(recovered),
        violations=violations,
        fault_stats=_collect_fault_stats(system),
    )


def chaos_sweep(
    workloads: Sequence[str],
    schemes: Sequence[Union[str, SchemeName]] = (SchemeName.TXCACHE,),
    fault_config: Optional[FaultConfig] = None,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 1,
    operations: int = 40,
    seed: int = 42,
    engine=None,
    trace_dir=None,
    trace_epoch: int = 0,
) -> ChaosReport:
    """Sweep fault injection × crash fractions × schemes × workloads.

    Crash points are placed as fractions of each experiment's
    *fault-free* run length, so a sweep at different fault rates
    crashes at comparable execution points; every point regenerates
    its workload's traces from the same seed (identical traces, shared
    in-process by :func:`~repro.sim.runner.make_traces`'s memo).

    Each run gets its own fault seed (``fault_config.seed`` + run
    index) so the sweep explores distinct fault timings instead of
    replaying one draw sequence 5×N times — while staying exactly
    reproducible for a given base seed.

    Every per-run config (machine geometry + derived fault seed) is
    materialized and validated up front, so a bad knob raises before
    any point simulates.  The fault-free run-length measurements and
    then the crash runs go through ``engine``, an
    :class:`~repro.sim.parallel.ExperimentEngine` — a fresh default
    one (``jobs=1``, inline, uncached) when none is given.
    ``trace_dir`` captures one Chrome trace per crash run.
    """
    from .parallel import ChaosPoint, ExperimentEngine, RunLengthPoint
    from .validate import require_valid_config

    engine = engine or ExperimentEngine()
    fault_config = fault_config or FaultConfig()
    base = config or small_machine_config(num_cores=num_cores)
    clean = replace(base, faults=FaultConfig())
    scheme_names = [SchemeName.parse(scheme) for scheme in schemes]
    # fail fast: build every run's config (replace() re-runs the
    # FaultConfig validators) and check the machine geometry once,
    # before the first — potentially minutes-long — simulation
    require_valid_config(base, context="chaos sweep config")
    total_runs = len(workloads) * len(scheme_names) * len(fractions)
    faulty_configs = [
        replace(base, faults=replace(fault_config,
                                     seed=fault_config.seed + index))
        for index in range(total_runs)
    ]
    cells = [(workload, scheme.value)
             for workload in workloads for scheme in scheme_names]
    totals = engine.run([RunLengthPoint(workload, scheme, clean,
                                        operations=operations, seed=seed)
                         for workload, scheme in cells])
    crashes = [(workload, scheme, max(1, int(total * fraction)), total)
               for (workload, scheme), total in zip(cells, totals)
               for fraction in fractions]
    runs = engine.run([
        ChaosPoint(workload, scheme, crash_cycle, total, faulty,
                   operations=operations, seed=seed, trace_dir=trace_dir,
                   trace_epoch=trace_epoch)
        for (workload, scheme, crash_cycle, total), faulty
        in zip(crashes, faulty_configs)])
    return ChaosReport(fault_config=fault_config, runs=runs)
