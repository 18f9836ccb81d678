"""Experiment runner: build a system, run traces, extract the paper's
metrics (IPC, throughput, LLC miss rate, NVM write traffic, persistent
load latency)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..common.config import MachineConfig, small_machine_config
from ..common.types import SchemeName
from ..cpu.trace import Trace
from ..obs import Observability
from ..obs.stalls import LOG_STALL_KINDS, STALL_KINDS
from ..workloads import create_workload
from .system import System

#: the scheme order the paper's figures use
ALL_SCHEMES = (SchemeName.SP, SchemeName.TXCACHE,
               SchemeName.KILN, SchemeName.OPTIMAL)


@dataclass
class SimulationResult:
    """Headline metrics of one (workload, scheme) run."""

    workload: str
    scheme: SchemeName
    cycles: int
    instructions: int            # useful (pre-instrumentation) instructions
    instructions_executed: int   # including scheme-injected instructions
    transactions: int
    llc_accesses: float
    llc_misses: float
    nvm_write_lines: float
    nvm_read_lines: float
    persist_load_latency: float      # all persistent loads (core view)
    persist_llc_load_latency: float  # persistent loads at/below the LLC (Fig 10)
    load_latency: float
    tc_full_stall_events: float = 0.0
    stall_cycles: Dict[str, float] = field(default_factory=dict)
    raw_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Raw instructions per cycle, as a cycle-accurate simulator
        measures it — scheme-injected instructions (SP's logging, Fig.
        2b) count as retired work.  This is why the paper's SP looks
        better on IPC (Fig. 6, 47.7%) than on transaction throughput
        (Fig. 7, 31.6%): the extra instructions inflate IPC but not the
        transaction rate."""
        return self.instructions_executed / self.cycles if self.cycles else 0.0

    @property
    def useful_ipc(self) -> float:
        """Original-workload instructions per cycle (injected
        persistence instructions excluded)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def throughput(self) -> float:
        """Transactions per cycle (paper Fig. 7)."""
        return self.transactions / self.cycles if self.cycles else 0.0

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_misses / self.llc_accesses if self.llc_accesses else 0.0

    def to_dict(self, include_raw: bool = False) -> Dict[str, object]:
        """JSON-serializable summary (for the CLI and result files)."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "scheme": self.scheme.value,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "instructions_executed": self.instructions_executed,
            "transactions": self.transactions,
            "ipc": self.ipc,
            "useful_ipc": self.useful_ipc,
            "throughput": self.throughput,
            "llc_accesses": self.llc_accesses,
            "llc_misses": self.llc_misses,
            "llc_miss_rate": self.llc_miss_rate,
            "nvm_write_lines": self.nvm_write_lines,
            "nvm_read_lines": self.nvm_read_lines,
            "persist_load_latency": self.persist_load_latency,
            "persist_llc_load_latency": self.persist_llc_load_latency,
            "load_latency": self.load_latency,
            "tc_full_stall_events": self.tc_full_stall_events,
            "stall_cycles": dict(self.stall_cycles),
        }
        if include_raw:
            out["raw_stats"] = dict(self.raw_stats)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (derived
        metrics like ``ipc`` are recomputed, not read back).

        Exact inverse for JSON round-trips: Python's JSON encoder emits
        floats at full ``repr`` precision, so
        ``from_dict(json.loads(json.dumps(to_dict())))`` reproduces the
        original values bit for bit — the property the parallel
        engine's result cache relies on."""
        return cls(
            workload=str(data["workload"]),
            scheme=SchemeName.parse(data["scheme"]),
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            instructions_executed=int(data["instructions_executed"]),
            transactions=int(data["transactions"]),
            llc_accesses=data["llc_accesses"],
            llc_misses=data["llc_misses"],
            nvm_write_lines=data["nvm_write_lines"],
            nvm_read_lines=data["nvm_read_lines"],
            persist_load_latency=data["persist_load_latency"],
            persist_llc_load_latency=data["persist_llc_load_latency"],
            load_latency=data["load_latency"],
            tc_full_stall_events=data.get("tc_full_stall_events", 0.0),
            stall_cycles=dict(data.get("stall_cycles", {})),
            raw_stats=dict(data.get("raw_stats", {})),
        )


def collect_result(system: System, workload: str = "") -> SimulationResult:
    """Extract a :class:`SimulationResult` from a finished system."""
    stats = system.stats
    active = list(zip(system.cores, system.source_traces))
    instructions = sum(trace.instructions for _core, trace in active)
    executed = sum(core.instructions_retired for core, _trace in active)
    transactions = sum(core.committed_transactions for core, _trace in active)
    persist = [stats.summary(f"core.{core.core_id}.persist_load.latency")
               for core, _t in active]
    loads = [stats.summary(f"core.{core.core_id}.load.latency")
             for core, _t in active]

    def weighted_mean(summaries) -> float:
        total = sum(s.total for s in summaries)
        count = sum(s.count for s in summaries)
        return total / count if count else 0.0

    stall_cycles = {}
    for kind in STALL_KINDS + ("total",):
        value = sum(
            stats.counter(f"core.{core.core_id}.stall.{kind}")
            for core, _t in active)
        # the swtx-only log kinds are omitted while zero so results
        # from the paper's four schemes keep their historic (golden)
        # stall_cycles shape; any scheme that actually emits them gets
        # the new columns
        if kind in LOG_STALL_KINDS and not value:
            continue
        stall_cycles[kind] = value

    return SimulationResult(
        workload=workload,
        scheme=system.scheme.name,
        cycles=system.cycles,
        instructions=instructions,
        instructions_executed=executed,
        transactions=transactions,
        llc_accesses=stats.counter("llc.access"),
        llc_misses=stats.counter("llc.miss"),
        nvm_write_lines=stats.counter("mem.nvm.write.lines"),
        nvm_read_lines=stats.counter("mem.nvm.read.requests"),
        persist_load_latency=weighted_mean(persist),
        persist_llc_load_latency=stats.mean("hierarchy.persist_llc_load.latency"),
        load_latency=weighted_mean(loads),
        tc_full_stall_events=stats.counter("tc.full_stalls"),
        stall_cycles=stall_cycles,
        # dump(), not as_dict(): end-of-run collection also emits the
        # "further N occurrences suppressed" warning summaries
        raw_stats=stats.dump(),
    )


# Workload generation is deterministic in (workload, core, seed,
# operations, params), and nothing downstream mutates a generated
# trace or its ops (scheme preparation builds *new* traces that share
# the immutable op objects), so traces can be shared across the
# schemes of a figure grid instead of regenerated per point.  Bounded:
# a sweep over many distinct operation counts must not accumulate.
_TRACE_MEMO: Dict[tuple, tuple] = {}
_TRACE_MEMO_MAX = 32


def make_traces(workload: str, num_cores: int, operations: int,
                seed: int = 42, **workload_params) -> List[Trace]:
    """One trace per core, from per-core workload instances with
    disjoint heaps and distinct RNG streams."""
    try:
        key = (workload, num_cores, operations, seed,
               tuple(sorted(workload_params.items())))
        cached = _TRACE_MEMO.get(key)
    except TypeError:  # unhashable workload param: skip memoization
        key = None
        cached = None
    if cached is None:
        cached = tuple(
            create_workload(workload, core_id=core_id, seed=seed,
                            **workload_params).generate(operations)
            for core_id in range(num_cores)
        )
        if key is not None:
            if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
                _TRACE_MEMO.clear()
            _TRACE_MEMO[key] = cached
    return list(cached)


def make_mixed_traces(workloads: Sequence[str], operations: int,
                      seed: int = 42) -> List[Trace]:
    """Heterogeneous multiprogramming: one *different* workload per
    core (the paper runs homogeneous mixes; this exercises shared-LLC
    and NVM-channel interaction between unlike access patterns)."""
    return [
        create_workload(name, core_id=core_id, seed=seed).generate(operations)
        for core_id, name in enumerate(workloads)
    ]


def run_experiment(
    workload: str,
    scheme: Union[str, SchemeName],
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 4,
    operations: int = 300,
    seed: int = 42,
    traces: Optional[Sequence[Trace]] = None,
    obs: Optional[Observability] = None,
    **workload_params,
) -> SimulationResult:
    """Run one (workload, scheme) experiment to completion."""
    config = config or small_machine_config(num_cores=num_cores)
    system = System(config, scheme, obs=obs)
    if traces is None:
        traces = make_traces(workload, config.num_cores, operations,
                             seed=seed, **workload_params)
    system.load_traces(traces)
    system.run()
    if not system.done:
        raise RuntimeError(
            f"{workload}/{SchemeName.parse(scheme).value}: simulation "
            "drained its event queue without finishing")
    return collect_result(system, workload=workload)


def run_grid(
    workloads: Sequence[str],
    schemes: Sequence[Union[str, SchemeName]],
    config: MachineConfig,
    *,
    operations: int = 300,
    seed: int = 42,
    engine=None,
    trace_dir=None,
    trace_epoch: int = 0,
    **workload_params,
) -> Dict[str, Dict[SchemeName, SimulationResult]]:
    """Run every workload under every scheme on one machine config —
    the grid each of the paper's Figs. 6-10 reads — returning
    ``{workload: {scheme: result}}``.

    The points run through ``engine``, an
    :class:`~repro.sim.parallel.ExperimentEngine` — a fresh default
    one (``jobs=1``, inline, uncached) when none is given.  The
    schemes of one workload share its traces (every point regenerates
    them from the seed; :func:`make_traces` memoizes in-process).
    ``trace_dir`` captures one Chrome trace per point.
    """
    from .parallel import ExperimentEngine, ExperimentPoint, make_params

    names = [SchemeName.parse(scheme) for scheme in schemes]
    params = make_params(workload_params)
    results = iter((engine or ExperimentEngine()).run([
        ExperimentPoint(workload, scheme.value, config,
                        operations=operations, seed=seed,
                        workload_params=params, trace_dir=trace_dir,
                        trace_epoch=trace_epoch)
        for workload in workloads for scheme in names]))
    return {workload: {scheme: next(results) for scheme in names}
            for workload in workloads}


def run_comparison(
    workload: str,
    schemes: Sequence[Union[str, SchemeName]] = ALL_SCHEMES,
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 4,
    operations: int = 300,
    seed: int = 42,
    **workload_params,
) -> Dict[SchemeName, SimulationResult]:
    """Run one workload under several schemes on identical traces."""
    return run_grid(
        [workload], schemes,
        config or small_machine_config(num_cores=num_cores),
        operations=operations, seed=seed, **workload_params)[workload]
