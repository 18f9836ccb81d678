"""``serve``: ``repro cluster run --nodes 1 --replication 1 --jobs 1``
(one serve node and a router, each in its own process) under a closed
loop of two client threads.

Each client sends its next request only when the previous answer has
arrived.  Most requests are hits on keys warmed during set-up,
alternating between the node directly and the router; every
:data:`MISS_EVERY`-th request is a miss on a fresh seed with a small
point.  Hits never reach the simulator (HTTP, protocol, scheduler,
``ResultCache``, router); misses add the worker pool and a simulation.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import pathlib
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.serve.protocol import parse_request
from repro.sim.parallel import execute_point

from benchlib import HostSpeed, latency_summary

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOST = "127.0.0.1"
CLIENTS = 2
MISS_EVERY = 16
WARM_KEYS = 8
BOOTS = 5
#: the untraced window runs in chunks of this many seconds, with a
#: host-speed sample between chunks
CHUNK_S = 0.5
#: requests per client in each window of the traced run; the node and
#: router keep their last 4096 span events, which this stays under
TRACED_REQUESTS = 200
BOOT_TIMEOUT_S = 60.0


def point_spec(seed: int) -> Dict[str, object]:
    """A small point: the queue workload on one core, ~10 ms to simulate."""
    return {"kind": "experiment", "workload": "queue", "scheme": "txcache",
            "operations": 8, "seed": seed, "config": {"num_cores": 1}}


def reference(spec: Dict[str, object]) -> Tuple[str, str]:
    """``(key, payload JSON)`` as the batch engine computes it."""
    key, payload, _seconds = execute_point(parse_request(spec).point)
    return key, json.dumps(payload)


# ---------------------------------------------------------------------------
# the cluster under test
# ---------------------------------------------------------------------------
class Cluster:
    """One ``repro cluster run`` process tree, booted and torn down."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.node_port = self.router_port = 0
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.log: List[str] = []
        self._reader: Optional[threading.Thread] = None

    def boot(self) -> float:
        """Start the cluster; returns seconds until the router reports a
        ready node."""
        src = ROOT / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "run",
             "--nodes", "1", "--replication", "1", "--jobs", "1",
             "--host", HOST, "--port", "0", "--cache-dir", str(self.root)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = begin + BOOT_TIMEOUT_S
        while not self.router_port:
            try:
                line = self.lines.get(timeout=max(0.01,
                                                  deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("cluster did not boot:\n"
                                   + "".join(self.log[-20:])) from None
            node = re.search(r"node0 on [\d.]+:(\d+)", line)
            if node:
                self.node_port = int(node.group(1))
            router = re.search(r"router on [\d.]+:(\d+)", line)
            if router:
                self.router_port = int(router.group(1))
        while not get_json(self.router_port, "/healthz").get("ready"):
            if time.perf_counter() > deadline:
                raise RuntimeError("router never saw a ready node")
            time.sleep(0.005)
        return time.perf_counter() - begin

    def _pump(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self.lines.put(line)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=30)
        self.proc = None
        # a cluster killed before it drained leaves its nodes behind
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            strays = self._strays()
            if not strays:
                break
            for pid in strays:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
        shutil.rmtree(self.root, ignore_errors=True)

    def _strays(self) -> List[int]:
        """Live processes with this cluster's cache directory on their
        command line: the nodes and their pool workers, which run in
        sessions of their own."""
        marker = str(self.root).encode()
        pids = []
        for entry in pathlib.Path("/proc").glob("[0-9]*"):
            try:
                if marker in (entry / "cmdline").read_bytes():
                    pids.append(int(entry.name))
            except OSError:
                pass
        return pids


def get_json(port: int, path: str) -> Dict[str, object]:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def post(conn: http.client.HTTPConnection, spec: Dict[str, object],
         request_id: Optional[str] = None) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    conn.request("POST", "/v1/points", body=json.dumps(spec),
                 headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


# ---------------------------------------------------------------------------
# closed-loop load
# ---------------------------------------------------------------------------
class Record:
    __slots__ = ("kind", "spec", "seconds", "status", "body", "request_id")

    def __init__(self, kind, spec, seconds, status, body, request_id):
        self.kind = kind
        self.spec = spec
        self.seconds = seconds
        self.status = status
        self.body = body
        self.request_id = request_id


def _client(index: int, cluster: Cluster, warm: List[Dict[str, object]],
            rng_seed: int, miss_seeds, stop_at: float, limit: Optional[int],
            tag: Optional[str], out: List[Record]) -> None:
    rng = random.Random(rng_seed * CLIENTS + index)
    direct = http.client.HTTPConnection(HOST, cluster.node_port, timeout=120)
    routed = http.client.HTTPConnection(HOST, cluster.router_port,
                                        timeout=120)
    hits = 0
    try:
        for n in itertools.count(1):
            if (limit is not None and n > limit) or \
                    (limit is None and time.perf_counter() >= stop_at):
                break
            if n % MISS_EVERY == 0:
                kind, conn = "miss", direct
                spec = point_spec(next(miss_seeds))
            else:
                hits += 1
                kind, conn = (("hit", direct) if hits % 2
                              else ("routed_hit", routed))
                spec = rng.choice(warm)
            request_id = f"{tag}-{index}-{n}" if tag else None
            begin = time.perf_counter()
            try:
                status, body = post(conn, spec, request_id)
            except (OSError, http.client.HTTPException) as error:
                status, body = 0, repr(error).encode()
                conn.close()
            out.append(Record(kind, spec, time.perf_counter() - begin,
                              status, body, request_id))
    finally:
        direct.close()
        routed.close()


def load(cluster: Cluster, warm, rng_seed: int, miss_seeds,
         seconds: Optional[float] = None, limit: Optional[int] = None,
         tag: Optional[str] = None) -> Tuple[List[Record], float]:
    """Run the closed loop for ``seconds`` (or ``limit`` requests per
    client); returns the records and the window's wall time."""
    outputs: List[List[Record]] = [[] for _ in range(CLIENTS)]
    begin = time.perf_counter()
    stop_at = begin + (seconds or 0.0)
    threads = [threading.Thread(
        target=_client, args=(i, cluster, warm, rng_seed, miss_seeds,
                              stop_at, limit, tag, outputs[i]))
        for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for out in outputs for r in out], time.perf_counter() - begin


def verify(records: List[Record],
           references: Dict[str, Tuple[str, str]]) -> List[str]:
    """Every answer must be a 200 whose payload is byte-identical to the
    batch engine's; references for misses are computed here, after the
    timed window."""
    problems = []
    for record in records:
        if record.status != 200:
            problems.append(f"{record.kind} HTTP {record.status}: "
                            f"{record.body[:200]!r}")
            continue
        spec_blob = json.dumps(record.spec, sort_keys=True)
        if spec_blob not in references:
            references[spec_blob] = reference(record.spec)
        key, payload = references[spec_blob]
        answer = json.loads(record.body)
        if answer.get("key") != key or json.dumps(answer["payload"]) != payload:
            problems.append(f"{record.kind} {key[:12]}: payload differs "
                            "from the batch engine's")
    return problems


def summarize(records: List[Record], wall: float) -> Dict[str, object]:
    by_kind = {kind: [r.seconds for r in records
                      if r.kind == kind and r.status == 200]
               for kind in ("hit", "routed_hit", "miss")}
    out: Dict[str, object] = {"requests_per_s": len(records) / wall,
                              "requests": len(records)}
    for kind, samples in by_kind.items():
        if samples:
            summary = latency_summary(samples)
            out[f"{kind}_p50_ms"] = summary["p50_ms"]
            out[f"{kind}_p90_ms"] = summary["p90_ms"]
            out[f"{kind}_count"] = summary["count"]
            out[f"{kind}_beyond_p90"] = summary["beyond_p90"]
            out[f"{kind}_p90_reportable"] = summary["p90_reportable"]
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def setup(work: pathlib.Path, seed: int, host: HostSpeed,
          boots: int = BOOTS):
    """Boot the cluster ``boots`` times (keeping the last), warm the
    hit keys and compute their references.  Returns the cluster, the
    warm specs, their references, the boot times and any problems."""
    times = []
    for attempt in range(boots):
        host.sample()
        cluster = Cluster(work / f"serve-{os.getpid()}-{attempt}")
        try:
            times.append(cluster.boot())
        except BaseException:
            cluster.stop()
            raise
        if attempt < boots - 1:
            cluster.stop()
    warm = [point_spec(10_000_000 + seed * 1000 + i) for i in range(WARM_KEYS)]
    references = {}
    problems = []
    conn = http.client.HTTPConnection(HOST, cluster.node_port, timeout=120)
    try:
        for spec in warm:
            status, body = post(conn, spec)
            if status != 200:
                problems.append(f"warm-up HTTP {status}")
        for spec in warm:
            references[json.dumps(spec, sort_keys=True)] = reference(spec)
    except BaseException:
        cluster.stop()
        raise
    finally:
        conn.close()
    return cluster, warm, references, times, problems


def miss_seeds(seed: int, window: int):
    """Fresh point seeds for one window's misses, shared by its clients."""
    return itertools.count(20_000_000 + seed * 100_000 + window * 10_000)


def measure(cluster, warm, references, seed: int, seconds: float,
            host: HostSpeed) -> Dict[str, object]:
    """The closed loop in :data:`CHUNK_S` chunks for ``seconds``; the
    load pauses between chunks for a host-speed sample."""
    records: List[Record] = []
    wall = 0.0
    misses = miss_seeds(seed, 0)
    mark = host.mark()
    chunk = 0
    while wall < seconds:
        out, chunk_wall = load(cluster, warm, seed * 1000 + chunk, misses,
                               seconds=min(CHUNK_S, seconds - wall))
        records.extend(out)
        wall += chunk_wall
        chunk += 1
        host.sample()
    problems = verify(records, references)
    info = summarize(records, wall)
    failed = min(len(records), len(problems))
    # normalized by the samples of this window, not of set-up
    slowdown = host.slowdown_since(mark)
    scaled = {name: info[name] / slowdown if name.endswith("_ms")
              else info[name] for name in info}
    scaled["requests_per_s"] = info["requests_per_s"] * slowdown
    return {
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
        "values": {"throughput_per_s": scaled["requests_per_s"],
                   "latency_ms": scaled.get("hit_p50_ms", 0.0)},
        "info": {**scaled, "measured": info},
    }


def _counter_window(before: Dict[str, float], after: Dict[str, float],
                    name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _mean_window(before: Dict[str, float], after: Dict[str, float],
                 name: str) -> float:
    """Mean of a histogram over the samples added between snapshots."""
    count = (after.get(f"{name}.count", 0)
             - before.get(f"{name}.count", 0))
    if count <= 0:
        return 0.0
    total = (after.get(f"{name}.mean", 0.0) * after.get(f"{name}.count", 0)
             - before.get(f"{name}.mean", 0.0)
             * before.get(f"{name}.count", 0))
    return total / count


def _durations(trace: Dict[str, object], name: str) -> Dict[str, float]:
    """request id -> span duration in ms for complete events ``name``."""
    out = {}
    for event in trace.get("traceEvents", []):
        args = event.get("args") or {}
        if event.get("ph") == "X" and event.get("name") == name \
                and "request_id" in args:
            out[args["request_id"]] = event.get("dur", 0) / 1000.0
    return out


def traced(cluster, warm, references, seed: int) -> Dict[str, object]:
    """A plain window and a traced window of the same length (in
    requests); the traced one tags every request with ``X-Request-Id``
    and merges the client's spans with the node's and router's
    ``/trace``."""
    plain, plain_wall = load(cluster, warm, seed, miss_seeds(seed, 1),
                             limit=TRACED_REQUESTS)
    node_before = get_json(cluster.node_port, "/stats")["counters"]
    router_before = get_json(cluster.router_port,
                             "/stats")["router"]["counters"]
    tag = f"pb{seed}"
    records, wall = load(cluster, warm, seed, miss_seeds(seed, 2),
                         limit=TRACED_REQUESTS, tag=tag)
    node_after = get_json(cluster.node_port, "/stats")["counters"]
    router_after = get_json(cluster.router_port,
                            "/stats")["router"]["counters"]
    node_spans = _durations(get_json(cluster.node_port, "/trace"),
                            "serve.request")
    route_spans = _durations(get_json(cluster.router_port, "/trace"),
                             "route")
    problems = verify(plain + records, references)
    info = summarize(records, wall)

    # span self time across processes: a parent's duration minus the
    # child span of the same request id (the child runs inside it)
    client_self = [r.seconds * 1000.0 - node_spans[r.request_id]
                   for r in records
                   if r.kind == "hit" and r.request_id in node_spans]
    router_self = [route_spans[r.request_id] - node_spans[r.request_id]
                   for r in records if r.kind == "routed_hit"
                   and r.request_id in route_spans
                   and r.request_id in node_spans]
    hits = _counter_window(node_before, node_after, "serve.cache.hits")
    misses = _counter_window(node_before, node_after, "serve.cache.misses")
    hop = (info.get("routed_hit_p50_ms", 0.0) - info.get("hit_p50_ms", 0.0))
    layers = {
        "serve.request_ms": _mean_window(node_before, node_after,
                                         "serve.request.ms"),
        "serve.admission_wait_ms": _mean_window(
            node_before, node_after, "serve.admission.wait.ms"),
        "serve.exec_s": _mean_window(node_before, node_after,
                                     "serve.point.seconds"),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.shed": _counter_window(node_before, node_after, "serve.shed"),
        "serve.http_self_ms": (statistics.median(client_self)
                               if client_self else 0.0),
        "cluster.hop_ms": hop,
        "cluster.request_ms": _mean_window(router_before, router_after,
                                           "cluster.request.ms"),
        "cluster.self_ms": (statistics.median(router_self)
                            if router_self else 0.0),
        "cluster.retries": _counter_window(router_before, router_after,
                                           "cluster.retries"),
        "trace.overhead_s": wall - plain_wall,
    }
    merged = len(client_self) + len(router_self)
    return {"attempted": len(plain) + len(records),
            "failed": min(len(plain) + len(records), len(problems)),
            "problems": problems, "layers": layers,
            "info": {"plain_wall_s": plain_wall, "traced_wall_s": wall,
                     "merged_spans": merged, **info}}
