"""Parameter-sweep utility: run grids of experiments declaratively.

The benches and ablations all share the same pattern — vary one knob,
run an experiment per value, collect results.  :class:`Sweep` packages
it with JSON-able output so studies can be scripted from the CLI or
notebooks:

    sweep = Sweep("tc size", values=[1024, 2048, 4096],
                  configure=lambda cfg, v: replace(
                      cfg, txcache=replace(cfg.txcache, size_bytes=v)))
    outcome = sweep.run("sps", "txcache", operations=200)
    print(outcome.format())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..common.config import MachineConfig, small_machine_config
from ..common.types import SchemeName
from .runner import SimulationResult
from .validate import require_valid_config

Configure = Callable[[MachineConfig, object], MachineConfig]


@dataclass
class SweepPoint:
    """One (value → result) pair of a sweep."""

    value: object
    result: SimulationResult

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "result": self.result.to_dict()}


@dataclass
class SweepOutcome:
    """All points of one executed sweep."""

    name: str
    workload: str
    scheme: str
    points: List[SweepPoint] = field(default_factory=list)

    def values(self) -> List[object]:
        return [point.value for point in self.points]

    def metric(self, getter: Callable[[SimulationResult], float]) -> List[float]:
        return [getter(point.result) for point in self.points]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps({
            "sweep": self.name,
            "workload": self.workload,
            "scheme": self.scheme,
            "points": [point.to_dict() for point in self.points],
        }, indent=indent)

    def format(self, metrics: Sequence[str] = ("cycles", "ipc",
                                               "nvm_write_lines")) -> str:
        header = f"{self.name:<16}" + "".join(f"{m:>18}" for m in metrics)
        lines = [f"sweep: {self.name} ({self.workload}/{self.scheme})",
                 header, "-" * len(header)]
        for point in self.points:
            row = f"{point.value!s:<16}"
            data = point.result.to_dict()
            for metric in metrics:
                value = data[metric]
                row += (f"{value:>18.3f}" if isinstance(value, float)
                        else f"{value:>18}")
            lines.append(row)
        return "\n".join(lines)


class Sweep:
    """A named knob plus the way it is applied to a machine config."""

    def __init__(self, name: str, values: Sequence[object],
                 configure: Configure) -> None:
        if not values:
            raise ValueError("a sweep needs at least one value")
        self.name = name
        self.values = list(values)
        self.configure = configure

    def run(self, workload: str, scheme: Union[str, SchemeName],
            base_config: Optional[MachineConfig] = None,
            engine=None, trace_dir=None, trace_epoch: int = 0,
            *, num_cores: int = 4, operations: int = 300, seed: int = 42,
            **workload_params) -> SweepOutcome:
        """Run the sweep grid: one point per value, applied to
        ``base_config`` (default: a ``num_cores``-core small machine;
        ``num_cores`` is ignored once a base config is given).

        The points run through ``engine``, an
        :class:`~repro.sim.parallel.ExperimentEngine` — a fresh default
        one (``jobs=1``, inline, uncached) when none is given.  Every
        point's config is materialized and validated **before** the
        first simulation starts, so a bad knob value raises
        immediately instead of minutes into the grid.

        ``trace_dir`` captures one Chrome trace per point, named by the
        point's cache key; ``trace_epoch`` turns on
        occupancy/queue-depth sampling every that-many cycles.
        """
        from .parallel import ExperimentEngine, ExperimentPoint, make_params

        if workload_params.pop("traces", None) is not None:
            raise ValueError("sweeps regenerate traces per point; "
                             "pass seed/operations instead of traces")
        base = base_config or small_machine_config(num_cores=num_cores)
        scheme_name = SchemeName.parse(scheme)
        configs = [self.configure(base, value) for value in self.values]
        for value, config in zip(self.values, configs):
            require_valid_config(config, context=f"sweep {self.name}={value!r}")
        params = make_params(workload_params)
        points = [ExperimentPoint(workload, scheme_name.value, config,
                                  operations=operations, seed=seed,
                                  workload_params=params,
                                  trace_dir=trace_dir,
                                  trace_epoch=trace_epoch)
                  for config in configs]
        results = (engine or ExperimentEngine()).run(points)
        return SweepOutcome(
            name=self.name, workload=workload, scheme=scheme_name.value,
            points=[SweepPoint(value=value, result=result)
                    for value, result in zip(self.values, results)])


# -- ready-made sweeps -------------------------------------------------------
def tc_size_sweep(sizes: Sequence[int] = (1024, 2048, 4096, 8192)) -> Sweep:
    from dataclasses import replace

    return Sweep("tc_size_bytes", sizes,
                 lambda cfg, v: replace(
                     cfg, txcache=replace(cfg.txcache, size_bytes=v)))


def llc_size_sweep(sizes: Sequence[int] = (16 * 1024, 32 * 1024,
                                           64 * 1024, 128 * 1024)) -> Sweep:
    return Sweep("llc_size_bytes", sizes,
                 lambda cfg, v: cfg.scaled_llc(v))


def nvm_write_latency_sweep(
        latencies_ns: Sequence[float] = (76.0, 150.0, 350.0)) -> Sweep:
    from dataclasses import replace

    def configure(cfg: MachineConfig, value) -> MachineConfig:
        timing = replace(cfg.nvm.timing, write_ns=float(value))
        return replace(cfg, nvm=replace(cfg.nvm, timing=timing))

    return Sweep("nvm_write_ns", latencies_ns, configure)
