"""End-to-end recovery: NI retransmission + the runtime invariant monitor.

The fault layer (:mod:`repro.faults`) can *detect* corruption, loss and
wedges; this module supplies the second half of the story — every detected
fault becomes a **recovered** delivery or an explicitly-accounted
degradation.  Two cooperating pieces, both off by default (the golden
Table 2 mesh carries neither):

**The NI retransmission protocol** (:class:`ReliabilityLayer`, enabled by
``NocConfig.retransmission``).  Every non-local packet is stamped with a
per-(src, dst, vnet) sequence number and a CRC-32 of its payload at
:meth:`Network.send`; the source NI keeps a pristine copy in a bounded
per-flow replay buffer.  The destination NI recomputes the CRC before the
endpoint may consume a delivery — a mismatch is rejected and NACKed, a
repeated sequence number is suppressed as a duplicate, and a clean first
delivery is acked.  Acks and NACKs are single-flit :class:`PacketType.ACK`
packets on the **response vnet**; they are terminal (consumed by the
reliability endpoint, never generating further traffic), so they cannot
close a protocol-deadlock cycle.  A replay entry that sees neither ack nor
NACK retransmits on a timeout with capped exponential backoff; a
retransmit storm is bounded by a per-flow in-flight cap and a per-packet
retry cap, after which the packet is abandoned to the integrity layer's
loss detection (a *detected* outcome, never a silent one).

**The runtime invariant monitor** (:class:`InvariantMonitor`, enabled by
``NocConfig.invariant_interval > 0``).  A kernel component that every N
cycles audits the fabric: per-VC credit conservation (the ``incoming``
counter of every VC must equal the link flits actually in flight toward
it), network-wide flit conservation (``injected − ejected − squashed ==
buffered + in-flight``), VC state-machine legality, and per-router forward
progress.  A violation raises a structured :class:`InvariantViolation`
carrying the existing wedge snapshot — unless ``invariant_recovery`` is
on, in which case a stalled VC is **squashed** (the victim packet's whole
wormhole chain is evicted, arrivals purged, reservations released, the
fault-injected wedge cleared) and the victim is requeued bit-exact through
the retransmission path.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.noc.flit import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.noc.router import InputVC

#: A reliability flow: (source node, destination node, vnet).
Flow = Tuple[int, int, int]

#: Cap on the exponential backoff multiplier (timeout, 2x, 4x, ...).
RETX_BACKOFF_CAP = 8
#: Max simultaneously outstanding retransmissions per flow (bounds a
#: retransmit storm; further due entries wait for the next deadline).
RETX_INFLIGHT_CAP = 4
#: Unacked packets retained per flow in the source replay buffer; beyond
#: this the oldest entry is evicted (and counted).
RETX_WINDOW = 32


def payload_crc(packet: Packet) -> int:
    """CRC-32 of the packet's end-to-end payload (0-length for control)."""
    data = packet.line if packet.line is not None else b""
    return zlib.crc32(data) & 0xFFFFFFFF


class InvariantViolation(RuntimeError):
    """A runtime fabric invariant failed.

    Structured: ``kind`` names the broken invariant (``credit`` /
    ``conservation`` / ``vc-state`` / ``forward-progress``), ``detail``
    pins the site, and ``snapshot`` carries the same wedge snapshot the
    drain watchdog attaches, so the exception alone locates the fault.
    """

    def __init__(self, kind: str, detail: str, cycle: int, snapshot: str):
        super().__init__(
            f"invariant violation [{kind}] @ cycle {cycle}: {detail}\n{snapshot}"
        )
        self.kind = kind
        self.detail = detail
        self.cycle = cycle
        self.snapshot = snapshot


@dataclass
class ReplayEntry:
    """One unacked packet in the source replay buffer (pristine copy)."""

    flow: Flow
    seq: int
    pid: int
    ptype: PacketType
    line: Optional[bytes]
    flit_bytes: int
    compressible: bool
    decompress_at_dst: bool
    msg: object
    crc: int
    first_sent: int
    attempts: int = 0
    next_deadline: int = 0
    nacked: bool = False
    counted_inflight: bool = False


class ReliabilityLayer:
    """Sequence numbers + CRC + replay buffer + ack/NACK retransmission.

    One instance per :class:`Network` (registered as the ``net.reliability``
    kernel component).  It plays both protocol ends: the source side stamps
    and replays (:meth:`on_send`, :meth:`tick`), the destination side
    verifies, deduplicates and acks (:meth:`on_deliver`).
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.config = network.config
        self.stats = network.recovered
        # Source side: per-flow sequence counters + replay buffers.
        self._next_seq: Dict[Flow, int] = {}
        self._entries: Dict[Flow, Dict[int, ReplayEntry]] = {}
        self._deadlines: List[Tuple[int, Flow, int]] = []  # heap
        self._retx_outstanding: Dict[Flow, int] = {}
        # Destination side: cumulative watermark + out-of-order set.
        self._delivered_upto: Dict[Flow, int] = {}
        self._delivered_ahead: Dict[Flow, Set[int]] = {}
        #: Packet ids delivered bit-exact via at least one retransmission —
        #: the fault reconciliation reads this to classify ``recovered``.
        self.recovered_pids: Set[int] = set()

    # -- kernel component protocol -------------------------------------------
    def has_work(self) -> bool:
        """True while any replay entry still awaits an ack.

        Consulted by :meth:`Network.quiescent`, so a drain keeps ticking
        until every retransmission deadline is resolved — a dropped packet
        cannot strand the network in a false quiescent state.
        """
        self._prune()
        return bool(self._deadlines)

    def tick(self, cycle: int) -> Optional[int]:
        """Fire every due retransmission deadline, then sleep until the
        earliest live one (every heappush site also wakes the layer, so a
        deadline scheduled while asleep is never missed)."""
        while self._deadlines and self._deadlines[0][0] <= cycle:
            deadline, flow, seq = heapq.heappop(self._deadlines)
            entry = self._entries.get(flow, {}).get(seq)
            if entry is None or entry.next_deadline != deadline:
                continue  # acked or superseded since it was scheduled
            if entry.counted_inflight:
                # The previous retransmission evidently did not deliver.
                entry.counted_inflight = False
                self._dec_outstanding(flow)
            if entry.attempts >= self.config.retx_max_retries:
                self._abandon(entry)
                continue
            if self._retx_outstanding.get(flow, 0) >= RETX_INFLIGHT_CAP:
                # Storm bound: wait one base timeout and try again.
                entry.next_deadline = cycle + self.config.retx_timeout
                heapq.heappush(
                    self._deadlines, (entry.next_deadline, flow, seq)
                )
                self.network.kernel.wake(self, entry.next_deadline)
                continue
            self._retransmit(entry, cycle)
        self._prune()
        return self._deadlines[0][0] if self._deadlines else None

    def _prune(self) -> None:
        """Drop stale heap heads (entries already acked or rescheduled)."""
        while self._deadlines:
            deadline, flow, seq = self._deadlines[0]
            entry = self._entries.get(flow, {}).get(seq)
            if entry is not None and entry.next_deadline == deadline:
                return
            heapq.heappop(self._deadlines)

    def _dec_outstanding(self, flow: Flow) -> None:
        count = self._retx_outstanding.get(flow, 0)
        if count <= 1:
            self._retx_outstanding.pop(flow, None)
        else:
            self._retx_outstanding[flow] = count - 1

    # -- source side ----------------------------------------------------------
    def on_send(self, cycle: int, packet: Packet) -> None:
        """Stamp seq + CRC and record a pristine replay copy (non-local
        traffic only; acks and same-tile transfers ride unprotected)."""
        if packet.ptype is PacketType.ACK or packet.src == packet.dst:
            return
        flow = (packet.src, packet.dst, packet.vnet)
        seq = self._next_seq.get(flow, 0)
        self._next_seq[flow] = seq + 1
        packet.seq = seq
        packet.crc = payload_crc(packet)
        entries = self._entries.setdefault(flow, {})
        if len(entries) >= RETX_WINDOW:
            oldest = min(entries)
            evicted = entries.pop(oldest)
            if evicted.counted_inflight:
                self._dec_outstanding(flow)
            self.stats.replay_evictions += 1
        entry = ReplayEntry(
            flow=flow,
            seq=seq,
            pid=packet.pid,
            ptype=packet.ptype,
            line=packet.line,
            flit_bytes=packet.flit_bytes,
            compressible=packet.compressible,
            decompress_at_dst=packet.decompress_at_dst,
            msg=packet.msg,
            crc=packet.crc,
            first_sent=cycle,
            next_deadline=cycle + self.config.retx_timeout,
        )
        entries[seq] = entry
        heapq.heappush(self._deadlines, (entry.next_deadline, flow, seq))
        self.network.kernel.wake(self, entry.next_deadline)

    def _retransmit(self, entry: ReplayEntry, cycle: int) -> None:
        """Re-inject a pristine clone of an unacked packet at its source NI."""
        flow = entry.flow
        clone = Packet(
            entry.ptype,
            flow[0],
            flow[1],
            flit_bytes=entry.flit_bytes,
            line=entry.line,
            compressible=entry.compressible,
            decompress_at_dst=entry.decompress_at_dst,
            msg=entry.msg,
        )
        # The clone *is* the original as far as end-to-end identity goes:
        # same pid (integrity fingerprints are keyed by it), same seq (the
        # destination's duplicate suppression is keyed by it).
        clone.pid = entry.pid
        clone.seq = entry.seq
        clone.crc = entry.crc
        entry.attempts += 1
        clone.retransmissions = entry.attempts
        entry.counted_inflight = True
        self._retx_outstanding[flow] = self._retx_outstanding.get(flow, 0) + 1
        backoff = min(1 << entry.attempts, RETX_BACKOFF_CAP)
        entry.next_deadline = cycle + self.config.retx_timeout * backoff
        heapq.heappush(self._deadlines, (entry.next_deadline, flow, entry.seq))
        self.network.kernel.wake(self, entry.next_deadline)
        self.stats.retransmissions += 1
        if self.network.tracer is not None:
            # Lifecycle hook: recorded before the inject so the retx marker
            # precedes the clone's inject event in the trace.
            self.network.tracer.on_retransmit(cycle, clone, flow[0])
        self.network.nis[flow[0]].inject(clone)

    def _abandon(self, entry: ReplayEntry) -> None:
        """Retry cap reached: stop replaying; the integrity layer's
        ``finalize`` will flag the packet as lost (detected, not silent)."""
        flow_entries = self._entries.get(entry.flow)
        if flow_entries is not None:
            flow_entries.pop(entry.seq, None)
            if not flow_entries:
                self._entries.pop(entry.flow, None)
        if entry.counted_inflight:
            self._dec_outstanding(entry.flow)
        self.stats.retries_exhausted += 1

    def request_retransmit(self, packet: Packet, cycle: int) -> bool:
        """Immediately replay a squashed victim (invariant-monitor path).

        Returns False when the packet is not replay-protected (evicted
        entry, unstamped packet) — the caller then leaves it to the
        integrity layer's loss detection.
        """
        if packet.seq < 0:
            return False
        flow = (packet.src, packet.dst, packet.vnet)
        entry = self._entries.get(flow, {}).get(packet.seq)
        if entry is None:
            return False
        if entry.attempts >= self.config.retx_max_retries:
            self._abandon(entry)
            return False
        if entry.counted_inflight:
            entry.counted_inflight = False
            self._dec_outstanding(flow)
        self._retransmit(entry, cycle)
        return True

    # -- destination side ------------------------------------------------------
    def on_deliver(self, cycle: int, node: int, packet: Packet) -> bool:
        """Protocol endpoint at the destination NI.

        Returns True when the delivery should continue to the integrity
        check and the endpoint handler; False when the reliability layer
        consumed it (ack/NACK processing, duplicate suppression, or a CRC
        rejection awaiting re-delivery).
        """
        if packet.ptype is PacketType.ACK:
            self._on_ack(packet)
            return False
        if packet.seq < 0:
            return True  # unprotected (local or pre-attach) traffic
        flow = (packet.src, packet.dst, packet.vnet)
        if payload_crc(packet) != packet.crc:
            self.stats.crc_rejections += 1
            if self.network.tracer is not None:
                self.network.tracer.on_crc_reject(cycle, packet, node)
            entry = self._entries.get(flow, {}).get(packet.seq)
            if entry is not None:
                entry.nacked = True
            self._send_ack("nack", flow, packet.seq)
            return False
        if self._already_delivered(flow, packet.seq):
            self.stats.duplicates_dropped += 1
            if self.network.tracer is not None:
                self.network.tracer.on_duplicate(cycle, packet, node)
            # Re-ack: the earlier ack may itself have been lost.
            self._send_ack("ack", flow, packet.seq)
            return False
        self._mark_delivered(flow, packet.seq)
        entry = self._entries.get(flow, {}).get(packet.seq)
        if packet.retransmissions > 0:
            # Bit-exact re-delivery after at least one replay: recovered.
            self.stats.recovered_packets += 1
            first = entry.first_sent if entry is not None else packet.injected_cycle
            self.stats.recovery_latency_cycles += max(0, cycle - first)
            self.recovered_pids.add(packet.pid)
        self._send_ack("ack", flow, packet.seq)
        return True

    def _already_delivered(self, flow: Flow, seq: int) -> bool:
        if seq <= self._delivered_upto.get(flow, -1):
            return True
        return seq in self._delivered_ahead.get(flow, ())

    def _mark_delivered(self, flow: Flow, seq: int) -> None:
        ahead = self._delivered_ahead.setdefault(flow, set())
        ahead.add(seq)
        upto = self._delivered_upto.get(flow, -1)
        while upto + 1 in ahead:
            upto += 1
            ahead.discard(upto)
        self._delivered_upto[flow] = upto
        if not ahead:
            self._delivered_ahead.pop(flow, None)

    def _send_ack(self, kind: str, flow: Flow, seq: int) -> None:
        """Inject a single-flit ack/NACK back toward the flow's source.

        Travels on the response vnet (terminal traffic — deadlock-safe)
        and bypasses ``Network.send`` so the integrity checker never
        fingerprints it: an ack is protocol machinery, not a payload.
        """
        ack = Packet(PacketType.ACK, flow[1], flow[0], msg=(kind, flow, seq))
        if kind == "ack":
            watermark = self._delivered_upto.get(flow, -1)
            ack.msg = (kind, flow, seq, watermark)
            self.stats.acks_sent += 1
        else:
            self.stats.nacks_sent += 1
        self.network.nis[flow[1]].inject(ack)

    def _on_ack(self, packet: Packet) -> None:
        """Back at the source: clear replay state or replay immediately."""
        msg = packet.msg
        if not isinstance(msg, tuple) or len(msg) < 3:
            return  # malformed protocol packet: ignore, timeouts cover us
        kind, flow = msg[0], msg[1]
        entries = self._entries.get(flow)
        if kind == "ack":
            seq, watermark = msg[2], msg[3] if len(msg) > 3 else -1
            if entries is None:
                return
            acked = [s for s in entries if s <= watermark or s == seq]
            for s in acked:
                entry = entries.pop(s)
                if entry.counted_inflight:
                    self._dec_outstanding(flow)
            if not entries:
                self._entries.pop(flow, None)
        elif kind == "nack":
            seq = msg[2]
            entry = entries.get(seq) if entries is not None else None
            if entry is None:
                return
            entry.nacked = True
            if entry.counted_inflight:
                entry.counted_inflight = False
                self._dec_outstanding(flow)
            if entry.attempts >= self.config.retx_max_retries:
                self._abandon(entry)
            elif self._retx_outstanding.get(flow, 0) < RETX_INFLIGHT_CAP:
                self._retransmit(entry, self.network.cycle)
            # else: the pending timeout deadline retries later.

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = sum(len(e) for e in self._entries.values())
        return f"ReliabilityLayer({pending} unacked entries)"


# --------------------------------------------------------------------------
# squash: evict a packet's whole wormhole chain from the fabric
# --------------------------------------------------------------------------


def squash_packet(network: "Network", packet: Packet) -> int:
    """Remove every trace of ``packet`` from the fabric; returns the flit
    count removed (buffered + in flight) for conservation accounting.

    Order matters: in-flight arrivals are purged first (decrementing the
    target VCs' ``incoming`` credits), then the source NI's queue/stream
    state, then every VC in the packet's wormhole chain is force-released
    (which also drops downstream reservations and clears wedges).
    """
    removed = network.arrival_queue.purge_packet(packet)
    network.nis[packet.src].cancel_packet(packet)
    for router in network.routers:
        for vc in router.all_vcs:
            if vc.packet is packet:
                removed += vc.force_release()
    return removed


# --------------------------------------------------------------------------
# the runtime invariant monitor
# --------------------------------------------------------------------------


class InvariantMonitor:
    """Periodic fabric audit (kernel component, ``net.monitor`` phase).

    Every ``interval`` cycles it checks credit conservation per VC, global
    flit conservation, VC state legality, and per-VC forward progress.
    ``recover=True`` turns a forward-progress violation into a squash +
    retransmission-path requeue instead of an :class:`InvariantViolation`.
    """

    def __init__(
        self,
        network: "Network",
        interval: int,
        patience: int,
        recover: bool = False,
    ):
        self.network = network
        self.interval = max(1, interval)
        self.patience = max(1, patience)
        self.recover = recover
        self.checks_run = 0
        self.violations_raised = 0
        # (node, port, vc_index) -> (pid, flits_sent, flits_received, stalls)
        self._progress: Dict[Tuple[int, int, int], Tuple[int, int, int, int]] = {}

    # -- kernel component protocol -------------------------------------------
    def has_work(self) -> bool:
        return True  # the tick itself is one modulo when off-interval

    def tick(self, cycle: int) -> int:
        """Audit on an interval boundary, then sleep until the next one."""
        off = cycle % self.interval
        if not off:
            self.checks_run += 1
            self._check_credit_conservation(cycle)
            self._check_flit_conservation(cycle)
            self._check_vc_states(cycle)
            self._check_forward_progress(cycle)
        return cycle + self.interval - off

    def _violate(self, kind: str, detail: str, cycle: int) -> None:
        self.violations_raised += 1
        raise InvariantViolation(
            kind, detail, cycle, self.network.wedge_snapshot()
        )

    # -- the four checks -------------------------------------------------------
    def _check_credit_conservation(self, cycle: int) -> None:
        """Every VC's ``incoming`` must equal the link flits actually in
        flight toward it (the sender-visible credit view is derived from
        it, so a skew here silently corrupts flow control)."""
        in_flight = self.network.arrival_queue.in_flight_counts()
        for router in self.network.routers:
            for vc in router.all_vcs:
                expected = in_flight.get(vc, 0)
                if vc.incoming != expected:
                    self._violate(
                        "credit",
                        f"router {router.node} port {vc.port} vc "
                        f"{vc.vc_index}: incoming={vc.incoming} but "
                        f"{expected} flits in flight",
                        cycle,
                    )

    def _check_flit_conservation(self, cycle: int) -> None:
        """injected − ejected − squashed − compressed + restored must equal
        buffered + in flight + engine-staged.

        In-network compression removes buffered flits (``flits_saved``) and
        decompression re-adds them (``flits_restored``); a streaming
        compression additionally parks consumed flits in the engine's
        staging registers mid-job, so those count as staged, not lost.
        """
        network = self.network
        buffered = 0
        staged = 0
        for router in network.routers:
            for vc in router.all_vcs:
                buffered += vc.flits_present
                job = vc.engine_job
                if job is not None and getattr(job, "session", None) is not None:
                    staged += getattr(job, "consumed", 0)
        in_flight = network.arrival_queue.pending()
        stats = network.stats
        lhs = (
            stats.flits_injected
            - stats.flits_ejected
            - network.recovered.flits_squashed
            - stats.flits_saved
            + stats.flits_restored
        )
        if lhs != buffered + in_flight + staged:
            self._violate(
                "conservation",
                f"{stats.flits_injected} injected - {stats.flits_ejected} "
                f"ejected - {network.recovered.flits_squashed} squashed - "
                f"{stats.flits_saved} compressed + {stats.flits_restored} "
                f"restored != {buffered} buffered + {in_flight} in flight "
                f"+ {staged} staged",
                cycle,
            )

    def _check_vc_states(self, cycle: int) -> None:
        from repro.noc.router import VC_ACTIVE, VC_IDLE

        for router in self.network.routers:
            for vc in router.all_vcs:
                site = (
                    f"router {router.node} port {vc.port} vc {vc.vc_index}"
                )
                if not VC_IDLE <= vc.state <= VC_ACTIVE:
                    self._violate(
                        "vc-state", f"{site}: unknown state {vc.state}", cycle
                    )
                if vc.packet is None:
                    if vc.state != VC_IDLE or vc.flits_present:
                        self._violate(
                            "vc-state",
                            f"{site}: no packet but state={vc.state} "
                            f"buf={vc.flits_present}",
                            cycle,
                        )
                    continue
                if vc.state == VC_IDLE:
                    self._violate(
                        "vc-state", f"{site}: packet bound while IDLE", cycle
                    )
                if vc.engine_job is not None:
                    # A (de)compression engine transiently owns this VC's
                    # flit bookkeeping (streamed flits sit in its staging
                    # registers); the counts re-converge at job completion.
                    continue
                if vc.flits_sent + vc.flits_present != vc.flits_received:
                    self._violate(
                        "vc-state",
                        f"{site}: sent {vc.flits_sent} + buffered "
                        f"{vc.flits_present} != received {vc.flits_received}",
                        cycle,
                    )
                if vc.flits_received > vc.packet.size_flits:
                    self._violate(
                        "vc-state",
                        f"{site}: received {vc.flits_received} flits of a "
                        f"{vc.packet.size_flits}-flit packet",
                        cycle,
                    )
                if vc.state == VC_ACTIVE and vc.out_port < 0:
                    self._violate(
                        "vc-state", f"{site}: ACTIVE without an out port",
                        cycle,
                    )

    def _check_forward_progress(self, cycle: int) -> None:
        """A VC holding the same packet with zero flit movement across
        ``patience`` consecutive checks is stalled: recover or raise."""
        seen = set()
        stalled: List["InputVC"] = []
        for router in self.network.routers:
            for vc in router.all_vcs:
                if vc.packet is None:
                    continue
                key = (router.node, vc.port, vc.vc_index)
                seen.add(key)
                mark = (vc.packet.pid, vc.flits_sent, vc.flits_received)
                prev = self._progress.get(key)
                stalls = (
                    prev[3] + 1
                    if prev is not None and prev[:3] == mark
                    else 0
                )
                self._progress[key] = (*mark, stalls)
                if stalls >= self.patience:
                    stalled.append(vc)
        for key in [k for k in self._progress if k not in seen]:
            del self._progress[key]
        for vc in stalled:
            packet = vc.packet
            if packet is None:
                continue  # a squash this pass already released it
            if not self.recover:
                self._violate(
                    "forward-progress",
                    f"router {vc.router.node} port {vc.port} vc "
                    f"{vc.vc_index}: packet #{packet.pid} "
                    f"({packet.src}->{packet.dst}) made no progress over "
                    f"{self.patience + 1} checks "
                    f"({self.interval * (self.patience + 1)} cycles)",
                    cycle,
                )
            self._recover(vc, packet, cycle)

    def _recover(self, vc: "InputVC", packet: Packet, cycle: int) -> None:
        """Squash the victim's wormhole chain and requeue it bit-exact."""
        network = self.network
        removed = squash_packet(network, packet)
        network.recovered.flits_squashed += removed
        network.recovered.invariant_recoveries += 1
        layer = network.reliability
        if layer is not None:
            # Not replay-protected (evicted / unstamped / an ack): the
            # squash still frees the fabric; a lost payload is flagged by
            # the integrity layer at finalize.
            layer.request_retransmit(packet, cycle)
        # Forget progress history for the released chain.
        self._progress = {
            key: mark
            for key, mark in self._progress.items()
            if self._vc_at(key).packet is not None
        }

    def _vc_at(self, key: Tuple[int, int, int]) -> "InputVC":
        node, port, vc_index = key
        return self.network.routers[node].inputs[port][vc_index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InvariantMonitor(every {self.interval} cycles, "
            f"{self.checks_run} checks run)"
        )
