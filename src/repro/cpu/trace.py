"""Trace operation ISA and trace containers.

Workloads compile to a per-core *trace*: a list of :class:`TraceOp`.
The base ISA is scheme-independent — LOAD / STORE / COMPUTE plus the
paper's ``TX_BEGIN`` / ``TX_END`` transaction primitives (§4.2).  The
software-persistence baseline additionally understands ``CLWB`` and
``SFENCE`` ops, which its trace instrumentation injects (Fig. 2b);
hardware schemes never see them.

Persistent stores carry a :class:`~repro.common.types.Version`
(transaction id + per-transaction sequence number) assigned at trace
generation time, so every scheme runs the *same* logical writes and the
crash-consistency checker can compare durable states across schemes.
"""

from __future__ import annotations

import enum
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..common.columns import (
    count_byte,
    int_column,
    masked_count,
    sum_compute_instructions,
)
from ..common.types import Version, is_persistent_addr, line_addr


class OpType(enum.Enum):
    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    TX_BEGIN = "tx_begin"
    TX_END = "tx_end"
    CLWB = "clwb"      # SP instrumentation only
    SFENCE = "sfence"  # SP instrumentation only


#: dense integer codes for each op type; the core's dispatch table and
#: :class:`CompiledTrace`'s flat arrays index on these instead of
#: hashing enum members in the retire loop
(KIND_LOAD, KIND_STORE, KIND_COMPUTE, KIND_TX_BEGIN,
 KIND_TX_END, KIND_CLWB, KIND_SFENCE) = range(7)

_KIND_OF = {
    OpType.LOAD: KIND_LOAD,
    OpType.STORE: KIND_STORE,
    OpType.COMPUTE: KIND_COMPUTE,
    OpType.TX_BEGIN: KIND_TX_BEGIN,
    OpType.TX_END: KIND_TX_END,
    OpType.CLWB: KIND_CLWB,
    OpType.SFENCE: KIND_SFENCE,
}

_ADDRESSED_KINDS = frozenset((KIND_LOAD, KIND_STORE, KIND_CLWB))


class TraceOp:
    """One dynamic operation.

    ``count`` is the number of ALU instructions for COMPUTE (1 for all
    other ops).  ``version`` is set on persistent stores.

    A ``__slots__`` class: traces hold 10⁴–10⁶ of these and the core
    touches them every retire, so ``kind`` (dense int code) and
    ``persistent`` are derived once at construction.  ``op`` and
    ``addr`` must not be mutated afterwards (``count`` may grow while
    a builder coalesces COMPUTE runs — that derives nothing).
    """

    __slots__ = ("op", "addr", "count", "tx_id", "version",
                 "kind", "persistent")

    def __init__(self, op: OpType, addr: int = 0, count: int = 1,
                 tx_id: Optional[int] = None,
                 version: Optional[Version] = None) -> None:
        self.op = op
        self.addr = addr
        self.count = count
        self.tx_id = tx_id
        self.version = version
        kind = _KIND_OF[op]
        self.kind = kind
        self.persistent = (kind in _ADDRESSED_KINDS
                           and is_persistent_addr(addr))

    @property
    def instructions(self) -> int:
        """Dynamic instruction count this op represents."""
        return self.count if self.op is OpType.COMPUTE else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceOp):
            return NotImplemented
        return (self.op is other.op and self.addr == other.addr
                and self.count == other.count
                and self.tx_id == other.tx_id
                and self.version == other.version)

    def __repr__(self) -> str:
        return (f"TraceOp(op={self.op.name}, addr={self.addr:#x}, "
                f"count={self.count}, tx_id={self.tx_id}, "
                f"version={self.version})")

    def to_json(self) -> dict:
        data = {"op": self.op.value}
        if self.addr:
            data["addr"] = self.addr
        if self.count != 1:
            data["count"] = self.count
        if self.tx_id is not None:
            data["tx_id"] = self.tx_id
        if self.version is not None:
            data["version"] = [self.version.tx_id, self.version.seq]
        return data

    @staticmethod
    def from_json(data: dict) -> "TraceOp":
        version = data.get("version")
        return TraceOp(
            op=OpType(data["op"]),
            addr=data.get("addr", 0),
            count=data.get("count", 1),
            tx_id=data.get("tx_id"),
            version=Version(version[0], version[1]) if version else None,
        )


class CompiledTrace:
    """Flat parallel columns over a trace's ops, for the core's retire
    loop and the trace aggregates: ``kinds[i]`` is the dense op-type
    code of ``ops[i]`` (an immutable ``bytes`` byte column — indexing
    returns cached small ints and the buffer is one byte per op),
    ``counts[i]`` its instruction count (an ``array('q')`` int column),
    and ``persistent[i]`` its P/V flag (byte column).  Scanning flat
    columns is markedly cheaper than touching a Python object per
    retired op (see :mod:`repro.common.columns`)."""

    __slots__ = ("kinds", "counts", "persistent")

    def __init__(self, ops: List[TraceOp]) -> None:
        self.kinds: bytes = bytes(bytearray(op.kind for op in ops))
        self.counts = int_column(op.count for op in ops)
        self.persistent: bytes = bytes(
            bytearray(1 if op.persistent else 0 for op in ops))


@dataclass
class Trace:
    """A per-core operation stream plus summary metadata."""

    name: str
    ops: List[TraceOp] = field(default_factory=list)
    _compiled: Optional[CompiledTrace] = field(
        default=None, repr=False, compare=False)
    #: op count at the last successful validate() (-1: never validated)
    _validated_len: int = field(default=-1, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def compiled(self) -> CompiledTrace:
        """Flat-array view of the ops, computed once and cached.

        Called by the core when execution starts, i.e. after workload
        generation and scheme instrumentation are done.  Appending ops
        after this invalidates the cache (length check); in-place
        mutation of existing ops does not and is unsupported."""
        cached = self._compiled
        if cached is None or len(cached.kinds) != len(self.ops):
            cached = self._compiled = CompiledTrace(self.ops)
        return cached

    @property
    def instructions(self) -> int:
        compiled = self.compiled()
        return sum_compute_instructions(compiled.kinds, compiled.counts,
                                        KIND_COMPUTE)

    @property
    def transactions(self) -> int:
        return count_byte(self.compiled().kinds, KIND_TX_END)

    @property
    def persistent_stores(self) -> int:
        compiled = self.compiled()
        return masked_count(compiled.kinds, KIND_STORE, compiled.persistent)

    def validate(self) -> None:
        """Check transaction bracketing and version discipline.

        Raises ValueError on malformed traces: unbalanced TX markers,
        nested transactions, persistent in-transaction stores without a
        version, or version tx_id mismatching the enclosing transaction.

        A successful pass is memoized by op count: traces are shared
        across experiment points (and re-validated at system start), so
        the O(n) sweep runs once per distinct trace, not once per run.
        Appending ops invalidates the memo; in-place op mutation does
        not and is unsupported (same contract as :meth:`compiled`).
        """
        if self._validated_len == len(self.ops):
            return
        open_tx: Optional[int] = None
        for index, op in enumerate(self.ops):
            if op.op is OpType.TX_BEGIN:
                if open_tx is not None:
                    raise ValueError(
                        f"{self.name}[{index}]: nested TX_BEGIN "
                        f"(tx {op.tx_id} inside {open_tx})")
                if op.tx_id is None:
                    raise ValueError(f"{self.name}[{index}]: TX_BEGIN without tx_id")
                open_tx = op.tx_id
            elif op.op is OpType.TX_END:
                if open_tx is None:
                    raise ValueError(f"{self.name}[{index}]: TX_END outside tx")
                if op.tx_id != open_tx:
                    raise ValueError(
                        f"{self.name}[{index}]: TX_END tx {op.tx_id} != {open_tx}")
                open_tx = None
            elif op.op is OpType.STORE and op.persistent and open_tx is not None:
                if op.version is None:
                    raise ValueError(
                        f"{self.name}[{index}]: persistent tx store missing version")
                if op.version.tx_id != open_tx:
                    raise ValueError(
                        f"{self.name}[{index}]: version tx {op.version.tx_id} "
                        f"!= open tx {open_tx}")
        if open_tx is not None:
            raise ValueError(f"{self.name}: unterminated transaction {open_tx}")
        self._validated_len = len(self.ops)

    def transaction_writes(self) -> Dict[int, List[TraceOp]]:
        """Persistent stores grouped by enclosing transaction id."""
        groups: Dict[int, List[TraceOp]] = {}
        open_tx: Optional[int] = None
        for op in self.ops:
            if op.op is OpType.TX_BEGIN:
                open_tx = op.tx_id
                groups.setdefault(open_tx, [])
            elif op.op is OpType.TX_END:
                open_tx = None
            elif op.op is OpType.STORE and op.persistent and open_tx is not None:
                groups[open_tx].append(op)
        return groups

    # -- serialization -------------------------------------------------
    def dump(self, fp: io.TextIOBase) -> None:
        """Write as JSON-lines (one header line + one line per op)."""
        fp.write(json.dumps({"trace": self.name, "ops": len(self.ops)}) + "\n")
        for op in self.ops:
            fp.write(json.dumps(op.to_json()) + "\n")

    @staticmethod
    def load(fp: io.TextIOBase) -> "Trace":
        header = json.loads(fp.readline())
        trace = Trace(name=header["trace"])
        for line in fp:
            line = line.strip()
            if line:
                trace.ops.append(TraceOp.from_json(json.loads(line)))
        return trace


class TraceBuilder:
    """Helper for workloads: assigns tx ids and store versions.

    Addresses given to :meth:`store` / :meth:`load` are byte addresses;
    ops are recorded at line granularity by the simulator but kept
    byte-accurate in the trace.
    """

    def __init__(self, name: str, start_tx_id: int = 1) -> None:
        self.trace = Trace(name=name)
        self._next_tx = start_tx_id
        self._open_tx: Optional[int] = None
        self._tx_seq = 0

    @property
    def in_tx(self) -> bool:
        return self._open_tx is not None

    def begin_tx(self) -> int:
        if self._open_tx is not None:
            raise ValueError("nested transactions are not supported")
        tx_id = self._next_tx
        self._next_tx += 1
        self._open_tx = tx_id
        self._tx_seq = 0
        self.trace.ops.append(TraceOp(OpType.TX_BEGIN, tx_id=tx_id))
        return tx_id

    def end_tx(self) -> None:
        if self._open_tx is None:
            raise ValueError("TX_END without TX_BEGIN")
        self.trace.ops.append(TraceOp(OpType.TX_END, tx_id=self._open_tx))
        self._open_tx = None

    def load(self, addr: int) -> None:
        self.trace.ops.append(TraceOp(OpType.LOAD, addr=addr, tx_id=self._open_tx))

    def store(self, addr: int) -> None:
        version = None
        if self._open_tx is not None and is_persistent_addr(addr):
            version = Version(self._open_tx, self._tx_seq)
            self._tx_seq += 1
        self.trace.ops.append(
            TraceOp(OpType.STORE, addr=addr, tx_id=self._open_tx, version=version))

    def compute(self, count: int = 1) -> None:
        if count > 0:
            ops = self.trace.ops
            if ops and ops[-1].op is OpType.COMPUTE:
                ops[-1].count += count
            else:
                ops.append(TraceOp(OpType.COMPUTE, count=count))

    def build(self) -> Trace:
        if self._open_tx is not None:
            raise ValueError("trace ends inside a transaction")
        self.trace.validate()
        return self.trace
