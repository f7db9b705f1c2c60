"""Core-side tile controller: drives the core, owns the L1, talks MSI.

The tile issues the core's trace accesses into the L1, turns misses into
GETS/GETX rounds to the home bank, commits stores, answers invalidations
and recalls, and emits dirty writebacks on eviction.  A store advances the
line's version in the workload's :class:`~repro.workloads.corpus.ValuePool`;
the version's bytes are generated only when a writeback or a recall reads
``L1Line.data``, so real data flows through the system without paying for
values that the next store overwrites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.l1 import HIT, STATE_M, L1Cache
from repro.cmp.core_model import CoreModel
from repro.cmp.messages import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cmp.system import CmpSystem
    from repro.noc.flit import Packet


class Tile:
    """One tile: core + private L1 (the bank lives in ``cmp.bank``)."""

    def __init__(self, node: int, system: "CmpSystem", core: CoreModel):
        self.node = node
        self.system = system
        self.core = core
        config = system.config
        self.l1 = L1Cache(
            n_sets=config.l1_sets,
            ways=config.l1_ways,
            line_size=config.line_size,
            mshrs=config.l1_mshrs,
        )
        # Dirty lines written back but not yet consumed by their home (the
        # home serializes per line, so the next DATA we receive for the
        # address proves the WB was consumed) — used to disambiguate
        # recalls that race with our own writeback.
        self._wb_in_flight: set = set()

    # -- per-cycle issue ---------------------------------------------------------
    def has_work(self) -> bool:
        """Idle predicate: the core has not recorded its finish yet."""
        return self.core.stats.finished_cycle < 0

    def tick(self, cycle: int) -> Optional[int]:
        """Issue what the core can this cycle, then return the next cycle
        the tile needs.

        While the core can still attempt issue (trace left, miss window
        open) that is the core's next issue cycle, or the next cycle while
        an MSHR-full stall is polling (so ``stall_cycles`` counts match
        the tick-everything loop exactly).  Otherwise the tile is waiting
        on fills, or finished, and sleeps: deliveries wake it via
        :meth:`CmpSystem._on_packet`.
        """
        core = self.core
        if core.stats.finished_cycle >= 0:
            return None
        while core.can_issue(cycle):
            if not self._issue_one(cycle):
                break
        if core.position < len(core.trace):
            if core.outstanding < core.window:
                nxt = core.next_issue_cycle
                return nxt if nxt > cycle else cycle + 1
        elif core.outstanding == 0:
            core.finished(cycle)
        return None

    def _issue_one(self, cycle: int) -> bool:
        """Issue the core's next access; False when structurally stalled."""
        access = self.core.peek()
        addr = access.address
        outcome = self.l1.access(addr, access.is_write)
        if outcome == HIT:
            if access.is_write:
                self._commit_store(addr)
            self.core.issued(cycle, was_hit=True)
            return True
        measured = not self.core.in_warmup()
        entry = self.l1.mshr.lookup(addr)
        if entry is not None:
            self.l1.mshr.coalesce(addr, access.is_write, cycle, measured)
            self.core.issued(cycle, was_hit=False, coalesced=True)
            return True
        if self.l1.mshr.full():
            self.core.stalled()
            return False
        is_getx = access.is_write  # MISS with a store, or UPGRADE
        self.l1.mshr.allocate(addr, is_getx, cycle, measured)
        self._send_request(addr, is_getx)
        self.core.issued(cycle, was_hit=False, coalesced=False)
        return True

    def _send_request(self, addr: int, is_getx: bool) -> None:
        kind = MessageKind.GETX if is_getx else MessageKind.GETS
        self.system.send_message(
            Message(
                kind=kind,
                addr=addr,
                src=self.node,
                dst=self.system.config.home_node(addr),
                requester=self.node,
                issue_cycle=self.system.cycle,
            )
        )

    def _commit_store(self, addr: int) -> None:
        """A store retires: the line takes its next version (bytes pending)."""
        pool = self.system.pool
        self.l1.commit_store(addr, pool, pool.store(addr))

    # -- inbound protocol messages --------------------------------------------------
    def handle(self, msg: Message, packet: Optional["Packet"] = None) -> None:
        kind = msg.kind
        if kind is MessageKind.DATA:
            self._fill(msg)
        elif kind is MessageKind.INV:
            self._invalidate(msg)
        elif kind is MessageKind.RECALL:
            self._recall(msg)
        elif kind is MessageKind.WB_ACK:
            self._wb_in_flight.discard(msg.addr)
        else:  # pragma: no cover - routing guard
            raise ValueError(f"tile {self.node} got unexpected {kind}")

    def _invalidate(self, msg: Message) -> None:
        """INV: acknowledge immediately; stale in-flight S fills get a
        use-once deferral (GEMS-style) instead of a transient-state dance."""
        present = self.l1.invalidate(msg.addr) is not None
        entry = self.l1.mshr.lookup(msg.addr)
        if entry is not None and not present:
            # A grant may be in flight toward us; invalidate it on arrival.
            entry.pending_inv = True
        self.system.send_message(
            Message(
                kind=MessageKind.INV_ACK,
                addr=msg.addr,
                src=self.node,
                dst=msg.src,
            )
        )

    def _recall(self, msg: Message) -> None:
        line = self.l1.lookup(msg.addr)
        if line is not None and line.state == STATE_M:
            self.l1.invalidate(msg.addr)
            self.l1.stats.recalls += 1
            self.system.send_message(
                Message(
                    kind=MessageKind.RECALL_DATA,
                    addr=msg.addr,
                    src=self.node,
                    dst=msg.src,
                    data=line.data,
                )
            )
            return
        entry = self.l1.mshr.lookup(msg.addr)
        if (
            entry is not None
            and entry.is_write
            and msg.addr not in self._wb_in_flight
        ):
            # Our M grant is in flight (the home set M@us when it sent the
            # DATA, then processed the recalling transaction); answer once
            # the fill lands.
            entry.pending_recall_from = msg.src
            return
        # Otherwise our dirty writeback is in flight; the home will treat
        # it as the recalled data.
        self.l1.invalidate(msg.addr)
        self.system.send_message(
            Message(
                kind=MessageKind.RECALL_NACK,
                addr=msg.addr,
                src=self.node,
                dst=msg.src,
            )
        )

    def _fill(self, msg: Message) -> None:
        addr = msg.addr
        cycle = self.system.cycle
        # Receiving DATA proves the home consumed any WB of ours for this
        # line (it blocks the address until it has).
        self._wb_in_flight.discard(addr)
        entry = self.l1.mshr.release(addr)
        assert msg.data is not None
        victim = self.l1.fill(addr, msg.data, msg.grant_state)
        if victim is not None:
            self._writeback(victim.addr, victim.data)
        if msg.grant_state == STATE_M:
            for issue_cycle, is_write, primary, measured in entry.waiters:
                if is_write:
                    self._commit_store(addr)
                self.core.miss_completed(issue_cycle, cycle, primary, measured)
            if entry.pending_recall_from >= 0:
                # A recall raced with this grant; hand the (now written)
                # line straight back to the home.
                line = self.l1.invalidate(addr)
                assert line is not None
                self.l1.stats.recalls += 1
                self.system.send_message(
                    Message(
                        kind=MessageKind.RECALL_DATA,
                        addr=addr,
                        src=self.node,
                        dst=entry.pending_recall_from,
                        data=line.data,
                    )
                )
            return
        if entry.pending_recall_from >= 0:  # pragma: no cover - invariant
            raise RuntimeError("recall deferred onto a shared grant")
        # Granted S: reads complete; waiting stores need an upgrade round.
        writers = [w for w in entry.waiters if w[1]]
        readers = [w for w in entry.waiters if not w[1]]
        for issue_cycle, _, primary, measured in readers:
            self.core.miss_completed(issue_cycle, cycle, primary, measured)
        if entry.pending_inv:
            # An invalidation raced with this grant: the readers above got
            # their use-once data; drop the line now.
            self.l1.invalidate(addr)
        if writers:
            upgrade = self.l1.mshr.allocate(addr, True, writers[0][0])
            upgrade.waiters = list(writers)
            self._send_request(addr, True)

    def _writeback(self, addr: int, data: bytes) -> None:
        self._wb_in_flight.add(addr)
        self.system.send_message(
            Message(
                kind=MessageKind.WB_DATA,
                addr=addr,
                src=self.node,
                dst=self.system.config.home_node(addr),
                data=data,
            )
        )
