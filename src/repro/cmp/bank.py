"""Home NUCA bank: data array + blocking coherence directory.

Each tile hosts one L2 bank which is the *home* of the lines that map to it
(static line-interleaved NUCA).  The directory serializes transactions per
line: while one is pending, later requests queue and are replayed in order,
which keeps the protocol race-free with only two transient phases
(waiting for a recalled/written-back M line, waiting for invalidation
acks) plus the memory-fetch wait.

The directory map itself is modelled as perfect (unbounded), decoupled from
data-array residency — see DESIGN.md; data capacity (the thing compression
buys) is fully modelled by the segmented :class:`CompressedBankArray`.

Scheme hooks (paper §4.1): when the bank stores compressed lines, reads
that must leave in *raw* form (CC, CNC, ideal) pay the algorithm's
decompression latency inside the bank access path — except ideal, which
pays zero by definition; fills compress off the critical path; DISCO sends
the stored compressed image directly with no bank-side latency at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cache.compressed_bank import BankLine, CompressedBankArray
from repro.cmp.messages import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cmp.system import CmpSystem
    from repro.noc.flit import Packet

# Directory states.
DIR_U = "U"
DIR_S = "S"
DIR_M = "M"

# Transaction phases.
PH_RECALL = "wait_recall"
PH_WB = "wait_wb"
PH_ACKS = "wait_acks"
PH_MEM = "wait_mem"
PH_SERVE = "serve"


@dataclass
class DirEntry:
    state: str = DIR_U
    owner: int = -1
    sharers: Set[int] = field(default_factory=set)


@dataclass
class Transaction:
    addr: int
    requester: int
    is_getx: bool
    issue_cycle: int
    phase: str = PH_SERVE
    acks_left: int = 0
    wb_received: bool = False
    queue: List[Message] = field(default_factory=list)


@dataclass
class BankSideStats:
    """Scheme-level compressor activity at this bank."""

    compressions: int = 0
    decompressions: int = 0
    requests: int = 0
    memory_fetches: int = 0


class HomeBank:
    """One NUCA bank / directory controller."""

    def __init__(self, node: int, system: "CmpSystem"):
        self.node = node
        self.system = system
        config = system.config
        self.array = CompressedBankArray(
            n_sets=config.l2_sets_per_bank,
            ways=config.l2_ways,
            line_size=config.line_size,
            tag_factor=(
                config.l2_tag_factor if system.scheme.store_compressed else 1
            ),
            segment_bytes=config.segment_bytes,
            index_stride=config.n_banks,
        )
        self.directory: Dict[int, DirEntry] = {}
        self.pending: Dict[int, Transaction] = {}
        self.side_stats = BankSideStats()

    # -- kernel component protocol (passive: reactive, never scheduled) --------
    def has_work(self) -> bool:
        """Open directory transactions — feeds kernel wedge diagnostics."""
        return bool(self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HomeBank(node={self.node}, {len(self.pending)} pending)"

    # -- message dispatch -----------------------------------------------------
    def handle(self, msg: Message, packet: Optional["Packet"] = None) -> None:
        kind = msg.kind
        if kind in (MessageKind.GETS, MessageKind.GETX):
            self.side_stats.requests += 1
            self._request(msg)
        elif kind is MessageKind.WB_DATA:
            self._writeback(msg, packet)
        elif kind is MessageKind.INV_ACK:
            self._inv_ack(msg)
        elif kind in (MessageKind.RECALL_DATA, MessageKind.RECALL_NACK):
            self._recall_reply(msg, packet)
        elif kind is MessageKind.MEM_DATA:
            self._mem_data(msg, packet)
        else:  # pragma: no cover - routing guard
            raise ValueError(f"bank {self.node} got unexpected {kind}")

    # -- request path -------------------------------------------------------------
    def _request(self, msg: Message) -> None:
        trans = self.pending.get(msg.addr)
        if trans is not None:
            trans.queue.append(msg)
            return
        self._begin(msg)

    def _begin(self, msg: Message) -> None:
        addr = msg.addr
        entry = self.directory.setdefault(addr, DirEntry())
        trans = Transaction(
            addr=addr,
            requester=msg.requester,
            is_getx=(msg.kind is MessageKind.GETX),
            issue_cycle=self.system.cycle,
        )
        self.pending[addr] = trans
        if entry.state == DIR_M:
            if entry.owner == msg.requester:
                # The owner missed again: its dirty writeback is in flight.
                trans.phase = PH_WB
            else:
                trans.phase = PH_RECALL
                self.system.send_message(
                    Message(
                        kind=MessageKind.RECALL,
                        addr=addr,
                        src=self.node,
                        dst=entry.owner,
                        requester=msg.requester,
                    )
                )
            return
        if trans.is_getx:
            targets = entry.sharers - {msg.requester}
            if targets:
                trans.phase = PH_ACKS
                trans.acks_left = len(targets)
                for sharer in targets:
                    self.system.send_message(
                        Message(
                            kind=MessageKind.INV,
                            addr=addr,
                            src=self.node,
                            dst=sharer,
                            requester=msg.requester,
                        )
                    )
                return
        self._serve_data(trans)

    def _serve_data(self, trans: Transaction) -> None:
        """Directory is consistent; produce the data for the requester."""
        trans.phase = PH_SERVE
        scheme = self.system.scheme
        line = self.array.lookup(trans.addr)
        if line is not None:
            latency = self.system.config.l2_hit_latency
            if scheme.store_compressed and not scheme.use_disco_routers:
                # Someone has to decompress before the response leaves the
                # bank (CC/CNC pay for it; ideal gets it for free).
                self.side_stats.decompressions += 1
                latency += scheme.bank_read_decompress_cycles
            data = line.data
            payload = (
                line.compressed_payload
                if scheme.use_disco_routers
                else None
            )
            self.system.schedule(latency, self._respond, trans, data, payload)
            return
        # Bank data miss: fetch the line from memory.
        trans.phase = PH_MEM
        self.side_stats.memory_fetches += 1
        fetch = Message(
            kind=MessageKind.MEM_READ,
            addr=trans.addr,
            src=self.node,
            dst=self.system.config.mc_for(trans.addr),
            requester=trans.requester,
        )
        self.system.schedule(
            self.system.config.l2_hit_latency,
            self.system.send_message,
            fetch,
        )

    def _respond(self, trans: Transaction, data: bytes, payload) -> None:
        entry = self.directory[trans.addr]
        if trans.is_getx:
            entry.state = DIR_M
            entry.owner = trans.requester
            entry.sharers = set()
            grant = "M"
        else:
            entry.state = DIR_S
            entry.owner = -1
            entry.sharers.add(trans.requester)
            grant = "S"
        self.system.send_message(
            Message(
                kind=MessageKind.DATA,
                addr=trans.addr,
                src=self.node,
                dst=trans.requester,
                requester=trans.requester,
                data=data,
                grant_state=grant,
            ),
            compressed_payload=payload,
        )
        self._complete(trans)

    def _complete(self, trans: Transaction) -> None:
        self.pending.pop(trans.addr, None)
        queued = trans.queue
        for msg in queued:
            self._request(msg)

    # -- inbound data paths ----------------------------------------------------
    def _insert(self, addr: int, data: bytes, dirty: bool,
                packet: Optional["Packet"]) -> None:
        """Insert a line, applying the scheme's storage form."""
        scheme = self.system.scheme
        stored_bytes: Optional[int] = None
        payload = None
        if scheme.store_compressed:
            if packet is not None and packet.is_compressed:
                # Arrived compressed in-network (DISCO): store as-is.
                payload = packet.compressed
                stored_bytes = payload.size_bytes
            elif (
                scheme.use_disco_routers
                and packet is not None
                and scheme.disco is not None
                and not scheme.disco.compress_at_fill
            ):
                # Strict in-network-only DISCO: a block that reached the
                # bank uncompressed stays uncompressed — the capacity
                # benefit then depends entirely on the network having had
                # idle time to compress (an ablation mode; the default
                # uses the local engine off the critical path).
                pass
            else:
                compressed = self.system.algorithm.compress(data)
                self.side_stats.compressions += 1
                if compressed.compressible:
                    payload = compressed
                    stored_bytes = compressed.size_bytes
        victims = self.array.insert(
            addr,
            data,
            stored_bytes=stored_bytes,
            dirty=dirty,
            compressed_payload=payload,
        )
        for victim in victims:
            if victim.dirty:
                self._evict_to_memory(victim)

    def _evict_to_memory(self, victim: BankLine) -> None:
        scheme = self.system.scheme
        payload = None
        if scheme.store_compressed and not scheme.use_disco_routers:
            # CC/CNC/ideal decompress the victim at the bank (off the
            # requesting core's critical path; the energy is still real).
            if victim.compressed_payload is not None:
                self.side_stats.decompressions += 1
        elif scheme.use_disco_routers:
            payload = victim.compressed_payload
        self.system.send_message(
            Message(
                kind=MessageKind.MEM_WB,
                addr=victim.addr,
                src=self.node,
                dst=self.system.config.mc_for(victim.addr),
                data=victim.data,
            ),
            compressed_payload=payload,
        )

    def _writeback(self, msg: Message, packet: Optional["Packet"]) -> None:
        addr = msg.addr
        entry = self.directory.setdefault(addr, DirEntry())
        if entry.state == DIR_M and entry.owner == msg.src:
            entry.state = DIR_U
            entry.owner = -1
            entry.sharers = set()
        assert msg.data is not None
        self._insert(addr, msg.data, dirty=True, packet=packet)
        # Precise writeback tracking: the writer clears its WB-in-flight
        # marker on this ack, so a later recall is answered correctly
        # (defer for an in-flight re-grant vs. NACK for an in-flight WB).
        self.system.send_message(
            Message(
                kind=MessageKind.WB_ACK,
                addr=addr,
                src=self.node,
                dst=msg.src,
            )
        )
        trans = self.pending.get(addr)
        if trans is None:
            return
        if trans.phase == PH_WB:
            self._serve_data(trans)
        elif trans.phase == PH_RECALL:
            # WB raced with the recall; remember it so the NACK can proceed.
            trans.wb_received = True

    def _recall_reply(self, msg: Message, packet: Optional["Packet"]) -> None:
        trans = self.pending.get(msg.addr)
        if trans is None or trans.phase != PH_RECALL:  # pragma: no cover
            raise RuntimeError(
                f"bank {self.node}: unexpected recall reply for {msg.addr:#x}"
            )
        entry = self.directory[msg.addr]
        entry.state = DIR_U
        entry.owner = -1
        entry.sharers = set()
        if msg.kind is MessageKind.RECALL_DATA:
            assert msg.data is not None
            self._insert(msg.addr, msg.data, dirty=True, packet=packet)
            self._serve_data(trans)
        elif trans.wb_received:
            self._serve_data(trans)
        else:
            trans.phase = PH_WB

    def _inv_ack(self, msg: Message) -> None:
        trans = self.pending.get(msg.addr)
        if trans is None or trans.phase != PH_ACKS:  # pragma: no cover
            raise RuntimeError(
                f"bank {self.node}: unexpected INV_ACK for {msg.addr:#x}"
            )
        entry = self.directory[msg.addr]
        entry.sharers.discard(msg.src)
        trans.acks_left -= 1
        if trans.acks_left == 0:
            self._serve_data(trans)

    def _mem_data(self, msg: Message, packet: Optional["Packet"]) -> None:
        trans = self.pending.get(msg.addr)
        if trans is None or trans.phase != PH_MEM:  # pragma: no cover
            raise RuntimeError(
                f"bank {self.node}: unexpected MEM_DATA for {msg.addr:#x}"
            )
        assert msg.data is not None
        # Fill the array (compression happens off the critical path) and
        # forward the data to the requester immediately.
        self._insert(msg.addr, msg.data, dirty=False, packet=packet)
        stored = self.array.lookup(msg.addr, touch=False)
        payload = None
        if (
            self.system.scheme.use_disco_routers
            and stored is not None
        ):
            payload = stored.compressed_payload
        self._respond_from_fill(trans, msg.data, payload)

    def _respond_from_fill(self, trans: Transaction, data: bytes,
                           payload) -> None:
        self._respond(trans, data, payload)
