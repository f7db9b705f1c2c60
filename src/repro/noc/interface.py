"""Network interfaces: packetization, injection and ejection queues.

The NI is where the *scheme-dependent* compression steps of the paper's
comparison live (§4.1): CNC equips every NI with a (de)compressor that
compresses all injected and decompresses all ejected packets, charging the
algorithm's latency on both ends; DISCO's NI only pays a decompression
charge when a compressed packet reaches a destination that needs the raw
line and no router along the way found idle time to decompress it (the
mis-prediction residue of §3.2).  Those policies are injected by the
:mod:`repro.cmp.schemes` layer through :class:`repro.noc.network.Network`
hooks; the NI itself is scheme-agnostic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.noc.flit import Packet
from repro.noc.router import InputVC
from repro.noc.topology import PORT_LOCAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


class NetworkInterface:
    """Injection/ejection endpoint of one node."""

    def __init__(self, node: int, network: "Network"):
        self.node = node
        self.network = network
        self.config = network.config
        # One injection queue per vnet so responses never wait behind
        # requests at the source (protocol-deadlock avoidance).
        self._queues: List[Deque[Tuple[int, Packet]]] = [
            deque() for _ in range(self.config.vnets)
        ]
        self._streaming: List[Optional[Tuple[Packet, InputVC, int]]] = [
            None for _ in range(self.config.vnets)
        ]
        # Ejected packets waiting out an NI decompression charge.
        self._pending_delivery: List[Tuple[int, Packet]] = []

    # -- injection -----------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection (applies the inject transform).

        Every injection *attempt* counts toward ``packets_injected`` — a
        packet an injected fault drops at the NI is still an attempt, and
        the drop itself lands in ``degraded.packets_dropped``, so
        ``injected == ejected + dropped + still-in-network`` holds whether
        or not faults fire (drain-time reasoning relies on it).
        """
        now = self.network.cycle
        self.network.stats.packets_injected += 1
        tracer = self.network.tracer
        if tracer is not None:
            # Lifecycle hook: the sampling decision is made here, so every
            # injection attempt (first sends, retransmit clones, acks)
            # counts toward the 1/N rate.
            tracer.on_inject(now, packet, self.node)
        faults = self.network.faults
        if faults is not None and faults.drop_at_ni(now, self.node, packet):
            if tracer is not None:
                tracer.on_ni_drop(now, packet, self.node)
            return  # injected fault: the packet vanishes before queueing
        packet.injected_cycle = now
        extra = self.network.inject_transform(self.node, packet)
        self._queues[packet.vnet].append((now + extra, packet))
        # Idle->busy transition: the NI may be asleep; wake it for the
        # cycle the packet becomes streamable.
        self.network.kernel.wake(self, now + extra)

    def has_work(self) -> bool:
        if self._pending_delivery:
            return True
        for stream in self._streaming:
            if stream is not None:
                return True
        for queue in self._queues:
            if queue:
                return True
        return False

    def tick(self, cycle: Optional[int] = None) -> None:
        if self._pending_delivery:
            self._deliver_pending()
        streaming = self._streaming
        queues = self._queues
        for vnet in range(len(queues)):
            if streaming[vnet] is not None or queues[vnet]:
                self._advance_stream(vnet)

    def next_wake(self, cycle: int) -> Optional[int]:
        """Idleness contract: poll every cycle while a stream is open or a
        queue head is streamable (progress depends on VC/buffer state the
        NI cannot observe changing); otherwise sleep until the earliest
        ready deadline, or indefinitely (``inject`` /
        ``complete_ejection`` wake us)."""
        for stream in self._streaming:
            if stream is not None:
                return cycle + 1
        best: Optional[int] = None
        for queue in self._queues:
            if queue:
                ready = queue[0][0]
                if ready <= cycle:
                    return cycle + 1
                if best is None or ready < best:
                    best = ready
        for ready, _packet in self._pending_delivery:
            if ready <= cycle:
                return cycle + 1
            if best is None or ready < best:
                best = ready
        return best

    def cancel_packet(self, packet: Packet) -> bool:
        """Remove a packet from the injection queues / an open stream.

        Squash support for :mod:`repro.noc.reliability`: flits already
        streamed into the local VC are reclaimed by the VC squash; this
        only cancels state the NI itself still holds.  Returns True when
        anything was removed.
        """
        cancelled = False
        for vnet, queue in enumerate(self._queues):
            kept = [(ready, p) for ready, p in queue if p is not packet]
            if len(kept) != len(queue):
                self._queues[vnet] = deque(kept)
                cancelled = True
        for vnet, stream in enumerate(self._streaming):
            if stream is not None and stream[0] is packet:
                vc = stream[1]
                if vc.packet is None and vc.reserved:
                    vc.reserved = False  # head never entered the VC
                self._streaming[vnet] = None
                cancelled = True
        return cancelled

    def describe_backlog(self) -> str:
        """One-line queue/stream summary for wedge snapshots."""
        queued = sum(len(queue) for queue in self._queues)
        streaming = sum(
            1 for stream in self._streaming if stream is not None
        )
        return (
            f"{queued} packets queued, {streaming} streams open, "
            f"{len(self._pending_delivery)} ejections pending"
        )

    def _advance_stream(self, vnet: int) -> None:
        stream = self._streaming[vnet]
        if stream is None:
            stream = self._start_stream(vnet)
            if stream is None:
                return
        packet, vc, sent = stream
        if vc.depth - vc.flits_present <= 0:
            return  # no buffer space this cycle
        stats = self.network.stats
        stats.flits_injected += 1
        stats.buffer_writes += 1
        if sent == 0:
            vc.accept_flit(packet, True)
            # The local router may be asleep; it has a flit to move now.
            self.network.kernel.wake(vc.router)
            if self.network.tracer is not None:
                # Lifecycle hook: head flit entered the source router's
                # local input VC (the packet's first hop).
                self.network.tracer.on_hop(
                    self.network.cycle, packet, self.node, PORT_LOCAL,
                    vc.vc_index,
                )
        else:
            # ``accept_flit`` for a body flit.  Its packet holds the VC, so
            # the router's visit this cycle re-armed it for the next: no
            # wake needed.
            if vc.incoming > 0:
                vc.incoming -= 1
            vc.flits_present += 1
            vc.flits_received += 1
        sent += 1
        if sent == packet.size_flits:
            self._streaming[vnet] = None
        else:
            self._streaming[vnet] = (packet, vc, sent)

    def _start_stream(self, vnet: int):
        queue = self._queues[vnet]
        if not queue:
            return None
        ready, packet = queue[0]
        if ready > self.network.cycle:
            return None
        vc = self._allocate_local_vc(packet)
        if vc is None:
            return None
        queue.popleft()
        vc.reserved = True
        # Reservation alone makes the router "busy": wake it so it is
        # polling when the head flit lands (accept may still be a cycle
        # away if the buffer is momentarily full).
        self.network.kernel.wake(vc.router)
        stream = (packet, vc, 0)
        self._streaming[vnet] = stream
        return stream

    def _allocate_local_vc(self, packet: Packet) -> Optional[InputVC]:
        allowed = self.config.vnet_vcs(packet.vnet)
        for vc in self.network.routers[self.node].inputs[PORT_LOCAL]:
            if (
                vc.vc_index in allowed
                and vc.packet is None
                and not vc.reserved
                and vc.incoming == 0
            ):
                return vc  # ``InputVC.is_free``, inlined
        return None

    # -- ejection ------------------------------------------------------------
    def complete_ejection(self, packet: Packet) -> None:
        """Tail flit left the router: apply eject transform, then deliver."""
        now = self.network.cycle
        extra = self.network.eject_transform(self.node, packet)
        if extra > 0:
            self.network.stats.eject_decompress_stall_cycles += extra
            self._pending_delivery.append((now + extra, packet))
            self.network.kernel.wake(self, now + extra)
        else:
            self._deliver(packet)

    def _deliver_pending(self) -> None:
        now = self.network.cycle
        remaining = []
        for ready, packet in self._pending_delivery:
            if ready <= now:
                self._deliver(packet)
            else:
                remaining.append((ready, packet))
        self._pending_delivery = remaining

    def _deliver(self, packet: Packet) -> None:
        now = self.network.cycle
        packet.ejected_cycle = now
        self.network.stats.record_ejection(
            packet.ptype.value, now - packet.injected_cycle
        )
        if self.network.tracer is not None:
            # Lifecycle hook: mirrors record_ejection exactly, so traced
            # eject events (and packet spans) match ``packets_ejected``.
            self.network.tracer.on_eject(now, packet, self.node)
        self.network.deliver(self.node, packet)
