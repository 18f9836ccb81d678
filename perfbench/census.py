"""Per-layer accounting from the standard-library profiler.

A :class:`Census` profiles only the calls it is asked to wrap (the
benchmark wraps ``System.run``), then attributes self time to the
``repro`` subpackage that owns each function.  Built-in functions
(``list.append``, ``heapq.heappush``) have no package of their own;
their self time goes to the package of the caller, using the per-caller
times the profiler keeps.  Call counts are exact.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Tuple

#: the packages whose self time is reported, in table order
PACKAGES = ("common", "memory", "cache", "core", "cpu", "persistence")

FuncKey = Tuple[str, int, str]


def package_of(filename: str) -> str:
    """``.../repro/memory/controller.py`` -> ``memory``; anything
    outside a ``repro`` subpackage -> ``other``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "other"


def _is_builtin(key: FuncKey) -> bool:
    return key[0] == "~"


class Census:
    """Profile selected calls; summarise per package and per function."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def __enter__(self) -> "Census":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def _stats(self) -> Dict[FuncKey, tuple]:
        try:
            return pstats.Stats(self.profile).stats
        except TypeError:  # nothing was profiled
            return {}

    def self_seconds(self) -> Dict[str, float]:
        """Profiler self time per package (``other`` included)."""
        out: Dict[str, float] = {}
        for key, (_cc, _nc, tottime, _ct, callers) in self._stats().items():
            if not _is_builtin(key):
                pkg = package_of(key[0])
                out[pkg] = out.get(pkg, 0.0) + tottime
                continue
            attributed = 0.0
            for caller, caller_stats in callers.items():
                caller_time = caller_stats[2]
                pkg = ("other" if _is_builtin(caller)
                       else package_of(caller[0]))
                out[pkg] = out.get(pkg, 0.0) + caller_time
                attributed += caller_time
            # time the profiler kept no caller for (the outermost frame)
            rest = tottime - attributed
            if rest > 0:
                out["other"] = out.get("other", 0.0) + rest
        return out

    def calls(self, package: str, module: str, prefix: str) -> int:
        """Exact number of calls to functions of ``repro/<package>/
        <module>.py`` whose name starts with ``prefix``."""
        suffix = f"/repro/{package}/{module}.py"
        return sum(nc for (filename, _line, name), (_cc, nc, *_)
                   in self._stats().items()
                   if filename.replace("\\", "/").endswith(suffix)
                   and name.startswith(prefix))


def memory_census(census: Census) -> Dict[str, int]:
    """Controller poll callbacks (scheduler ticks, parked or not) and
    requests the controllers serviced, both exact."""
    return {"polls": census.calls("memory", "controller", "_tick"),
            "serviced": census.calls("memory", "controller", "_service")}
