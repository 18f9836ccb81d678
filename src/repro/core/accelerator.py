"""Persistent memory accelerator: per-core TCs + controller glue.

This is the stand-alone hardware module of the paper's Fig. 3(c): one
nonvolatile transaction cache per core, the logic that issues committed
entries toward the NVM, consumes the NVM controller's acknowledgment
messages, answers LLC miss probes with the newest buffered version, and
wakes stalled CPUs when a full TC gains room.

The accelerator is deliberately *mechanical* — policy (when to fall
back on overflow, what counts as durably committed) lives in the
TXCACHE persistence scheme that drives it.

Resilience (active only when a fault injector is attached to the
memory system; a strict no-op otherwise):

* every issued write carries its TC entry's sequence number, and acks
  are matched on it — a lost ack leaves the entry committed-unacked,
  and after ``ack_timeout_cycles`` the accelerator **reissues** it.
  Reissue is provably safe: the entry's (line, version) pair is exactly
  what the first write carried, the controller never reorders same-line
  writes, and FIFO multiversioning means rewriting the same committed
  version is idempotent.  A duplicated ack matches no live sequence
  number and frees nothing.
* TC line reads (issue, LLC probe) pass through a per-TC SECDED model
  (:class:`~repro.faults.ecc.SECDEDModel`): singles are corrected and
  scrubbed; an uncorrectable committed entry is refilled from the L1
  copy (every transactional store went to both L1 and TC); an
  uncorrectable *active* entry demotes its transaction to the COW
  overflow path via ``uncorrectable_handler``; a TC whose error rate
  crosses the configured threshold is *degraded* and stops admitting
  new transactions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..common.config import MachineConfig
from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import MemRequest, Version, line_addr
from ..memory.system import MemorySystem
from ..obs.tracer import NULL_TRACER, NullTracer
from .txcache import TransactionCache, TxEntry, TxState


class PersistentMemoryAccelerator:
    """All per-core transaction caches plus their shared NVM-side logic."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        stats: Stats,
        memory: MemorySystem,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.config = config
        self.memory = memory
        self.stats = stats.scoped("tc")
        self.tracer = tracer
        self.latency = config.txcache.latency_cycles(config.freq_ghz)
        self._global_seq = 0

        def next_seq() -> int:
            self._global_seq += 1
            return self._global_seq

        if config.txcache.organization == "set_assoc":
            from .setassoc import SetAssocTransactionBuffer

            self.tcs = [
                SetAssocTransactionBuffer(
                    config.txcache, stats.scoped(f"tc.{i}"),
                    seq_source=next_seq, assoc=config.txcache.assoc,
                    tracer=tracer, track=f"tc{i}", clock=self._clock)
                for i in range(config.num_cores)
            ]
        elif config.txcache.organization == "cam_fifo":
            self.tcs = [
                TransactionCache(config.txcache, stats.scoped(f"tc.{i}"),
                       seq_source=next_seq,
                       tracer=tracer, track=f"tc{i}",
                       clock=self._clock)
                for i in range(config.num_cores)
            ]
        else:
            raise ValueError(
                f"unknown TC organization {config.txcache.organization!r}")
        # CPUs stalled on a full TC, per core: resume callbacks
        self._space_waiters: Dict[int, List[Callable[[], None]]] = {
            i: [] for i in range(config.num_cores)
        }
        # issued-but-unacked writes per core (paced commit drain)
        self._outstanding: Dict[int, int] = {
            i: 0 for i in range(config.num_cores)
        }
        self.issue_window = config.txcache.issue_window
        #: fault injector (None in the fault-free baseline — every
        #: resilience path below is then never scheduled or taken)
        self.faults = memory.faults
        self.ack_timeout = (config.faults.ack_timeout_cycles
                            if self.faults is not None else 0)
        #: per-TC SECDED ECC models (only when bit-flip faults are on)
        self.ecc: Optional[List] = None
        if self.faults is not None and config.faults.tc_bit_flip_rate > 0:
            from ..faults.ecc import SECDEDModel

            self.ecc = [
                SECDEDModel(self.faults, config.faults,
                            stats.scoped(f"tc.{i}.ecc"))
                for i in range(config.num_cores)
            ]
        #: scheme hook: called with (core_id, entry) when an *active*
        #: entry reads back uncorrectable — the policy answer is to
        #: demote that transaction to the COW overflow path
        self.uncorrectable_handler: Optional[
            Callable[[int, TxEntry], None]] = None
        memory.set_nvm_ack_handler(self.on_ack)

    def _clock(self) -> int:
        """Timestamp source handed to the (otherwise passive) TCs."""
        return self.sim.now

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def cpu_write(self, core_id: int, tx_id: int, addr: int,
                  version: Optional[Version]) -> bool:
        """Non-blocking write request from the CPU (§3 working flow).
        Returns False when the TC is full — the caller must stall and
        register with :meth:`wait_for_space`."""
        return self.tcs[core_id].write(tx_id, addr, version)

    def wait_for_space(self, core_id: int, resume: Callable[[], None]) -> None:
        self.stats.inc("full_stalls")
        self._space_waiters[core_id].append(resume)

    def cpu_commit(self, core_id: int, tx_id: int) -> int:
        """Commit request from the CPU; returns the number of entries
        committed.  Issuing toward the NVM happens immediately after."""
        committed = self.tcs[core_id].commit(tx_id)
        self._issue(core_id)
        return len(committed)

    def near_overflow(self, core_id: int) -> bool:
        return self.tcs[core_id].above_threshold()

    # ------------------------------------------------------------------
    # NVM side
    # ------------------------------------------------------------------
    def _issue(self, core_id: int) -> None:
        """Send committed entries toward the NVM in FIFO order, paced
        to ``issue_window`` outstanding writes per core.  Routing of
        the later acknowledgment uses the request's ``source`` tag; the
        entry's sequence number rides along so the ack can be matched
        idempotently."""
        budget = self.issue_window - self._outstanding[core_id]
        if budget <= 0:
            return
        for entry in self.tcs[core_id].take_issuable(limit=budget):
            self._outstanding[core_id] += 1
            self._ecc_read_committed(core_id, entry)
            if self.tracer.enabled:
                self.tracer.instant("tc", f"tc{core_id}", "issue",
                                    self.sim.now, line=entry.tag,
                                    seq=entry.seq, tx=entry.tx_id)
            self.memory.write(
                entry.tag, entry.version,
                persistent=True, tx_id=entry.tx_id,
                source=f"tc.{core_id}",
                meta={"tc_seq": entry.seq},
            )
            if self.faults is not None:
                entry.issue_cycle = self.sim.now
                self.sim.schedule(self.ack_timeout, self._check_ack,
                                  core_id, entry, entry.issue_cycle)

    def on_ack(self, request: MemRequest, cycle: int) -> None:
        """Acknowledgment message from the NVM controller (§4.3): the
        write completed in the array, so the backup copy can be freed.
        A duplicate/stale ack matches no entry and changes nothing."""
        core_id = self._core_of(request)
        if core_id is None:
            self.stats.inc("ack.unrouted")
            return
        tc = self.tcs[core_id]
        was_full = tc.is_full()
        entry = tc.ack(request.line, seq=request.meta.get("tc_seq"))
        if entry is not None and self._outstanding[core_id] > 0:
            self._outstanding[core_id] -= 1
        self._issue(core_id)
        if was_full and not tc.is_full():
            waiters = self._space_waiters[core_id]
            self._space_waiters[core_id] = []
            if waiters and self.tracer.enabled:
                self.tracer.instant("tc", f"tc{core_id}", "space.wakeup",
                                    self.sim.now, waiters=len(waiters))
            for resume in waiters:
                self.sim.schedule(self.latency, resume)

    # ------------------------------------------------------------------
    # resilience: ack-timeout reissue and ECC (fault injection only)
    # ------------------------------------------------------------------
    def _check_ack(self, core_id: int, entry: TxEntry,
                   issue_stamp: int) -> None:
        """Ack-timeout watchdog for one issued entry.  If the entry is
        still committed-unacked and no newer reissue superseded this
        check, the acknowledgment was lost (or its write starved):
        reissue the same (line, version, seq) — idempotent by
        construction."""
        if (entry.state is not TxState.COMMITTED or not entry.issued
                or entry.issue_cycle != issue_stamp):
            return
        self.stats.inc("ack.timeouts")
        self.stats.inc("ack.reissues")
        if self.tracer.enabled:
            self.tracer.instant("tc", f"tc{core_id}", "ack.reissue",
                                self.sim.now, line=entry.tag, seq=entry.seq)
        entry.reissues += 1
        entry.issue_cycle = self.sim.now
        self.memory.write(
            entry.tag, entry.version,
            persistent=True, tx_id=entry.tx_id,
            source=f"tc.{core_id}",
            meta={"tc_seq": entry.seq},
        )
        self.sim.schedule(self.ack_timeout, self._check_ack,
                          core_id, entry, entry.issue_cycle)

    def _ecc_read_committed(self, core_id: int, entry: TxEntry) -> None:
        """ECC-check a committed entry read on the issue path.  An
        uncorrectable double is refilled from the L1 copy (the store
        went to both L1 and TC), costing one extra TC write."""
        if self.ecc is None:
            return
        from ..faults.ecc import EccOutcome

        if self.ecc[core_id].read() is EccOutcome.UNCORRECTABLE:
            self.stats.inc("ecc.refills")

    def degraded(self, core_id: int) -> bool:
        """True once this core's TC crossed the configured ECC error
        rate — the scheme then routes new transactions to the COW
        path instead of trusting the TC."""
        return self.ecc is not None and self.ecc[core_id].degraded

    @staticmethod
    def _core_of(request: MemRequest) -> Optional[int]:
        source = request.source
        if source.startswith("tc."):
            try:
                return int(source.split(".", 1)[1])
            except ValueError:
                return None
        return None

    # ------------------------------------------------------------------
    # LLC side
    # ------------------------------------------------------------------
    def llc_probe(self, line: int) -> Optional[Tuple[int, Optional[Version]]]:
        """LLC miss request (§3): return the newest buffered version of
        the line across all TCs, or None.  The probe costs one TC
        access.  Under fault injection every probe hit is ECC-checked:
        an uncorrectable *active* entry demotes its transaction to the
        COW path (and the probe falls through to the shadow copy); an
        uncorrectable committed entry is refilled from the L1 copy."""
        best: Optional[TxEntry] = None
        for core_id, tc in enumerate(self.tcs):
            entry = tc.probe(line)
            if entry is not None and self.ecc is not None:
                if not self._ecc_read_probe(core_id, entry):
                    continue
            if entry is not None and (best is None or entry.seq > best.seq):
                best = entry
        if best is None:
            return None
        return self.latency, best.version

    def _ecc_read_probe(self, core_id: int, entry: TxEntry) -> bool:
        """ECC-check a probe hit; returns False when the entry can no
        longer serve the probe (its transaction was just demoted)."""
        from ..faults.ecc import EccOutcome

        if self.ecc[core_id].read() is not EccOutcome.UNCORRECTABLE:
            return True
        if entry.state is TxState.ACTIVE:
            if self.uncorrectable_handler is not None:
                self.uncorrectable_handler(core_id, entry)
                # the transaction now lives on the COW path; its TC
                # entries were dropped, so this hit no longer exists
                return False
            return True
        self.stats.inc("ecc.refills")
        return True

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """True while any TC still holds live (unacked) entries."""
        return any(tc.live_entries() for tc in self.tcs)

    def recover(
        self, durable_nvm: Dict[int, Optional[Version]]
    ) -> Dict[int, Optional[Version]]:
        """Crash recovery (§3, Multiversioning): replay the committed
        entries buffered in the nonvolatile TCs, in FIFO order, on top
        of the NVM image found after the crash.  Active (uncommitted)
        entries are discarded."""
        recovered = dict(durable_nvm)
        for tc in self.tcs:
            for entry in tc.committed_unacked():
                recovered[entry.tag] = entry.version
        return recovered
