"""Packets and flit accounting.

Buffers track flit *counts* rather than per-flit objects (DESIGN.md §4):
a packet knows its current size in flits and routers move one flit per
cycle per granted crossbar port.  The packet object itself carries the real
cache-line payload plus its compressed form, so in-network (de)compression
changes ``size_flits`` — and therefore buffer occupancy, credits and
serialization latency — exactly as hardware would.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.compression.base import CompressedLine

#: Virtual-network classes (§3.3-C packet types map onto these).
VNET_REQUEST = 0  # requests + coherence control (single-flit packets)
VNET_RESPONSE = 1  # data-carrying responses / writebacks


class _PidCounter:
    """Monotonic packet-id source with a peekable watermark.

    ``itertools.count`` cannot report its next value without drawing it,
    which a checkpoint must never do (drawing would advance the stream).
    This counter exposes :attr:`value` so :func:`pid_watermark` /
    :func:`ensure_pid_floor` can capture and restore the allocation
    point without perturbing it.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value


_packet_ids = _PidCounter()


def pid_watermark() -> int:
    """The next pid that would be allocated (checkpoint capture)."""
    return _packet_ids.value


def ensure_pid_floor(floor: int) -> None:
    """Raise the pid allocation point to at least ``floor``.

    Called on checkpoint restore so packets created after the restore can
    never collide with pids carried by restored in-flight packets (the
    tracer's decision map, the integrity ledger and the reliability
    layer's recovered set are all keyed by pid).  Never lowers the
    counter: a process that restores several systems keeps all of them
    collision-free.
    """
    if _packet_ids.value < floor:
        _packet_ids.value = floor


class PacketType(enum.Enum):
    """The three packet classes of a cache-coherent CMP (§3.3-C), plus the
    single-flit ``ACK`` used by the NI retransmission protocol
    (:mod:`repro.noc.reliability`).  Acks are *terminal* — they are consumed
    by the destination NI's reliability endpoint and never generate further
    traffic — so they may safely share the response vnet without creating a
    protocol-deadlock cycle."""

    REQUEST = "request"
    RESPONSE = "response"
    COHERENCE = "coherence"
    ACK = "ack"

    @property
    def vnet(self) -> int:
        if self in (PacketType.RESPONSE, PacketType.ACK):
            return VNET_RESPONSE
        return VNET_REQUEST


class Packet:
    """One NoC packet: a head flit plus zero or more payload flits.

    Control packets (requests, coherence) are a single head flit.  Response
    packets carry a cache line: uncompressed they are ``1 + line/flit``
    flits (1+8 for 64-byte lines on 64-bit flits); compressed they shrink
    to ``1 + ceil(compressed_bytes / flit_bytes)``.

    ``compressible`` marks packets DISCO may compress (§3.3-C: response
    packets only); ``decompress_at_dst`` marks packets whose destination
    needs the uncompressed form (cores / the memory controller), i.e. the
    decompression candidates of Eq. (2).
    """

    __slots__ = (
        "pid",
        "ptype",
        "vnet",
        "src",
        "dst",
        "line",
        "compressed",
        "is_compressed",
        "compressible",
        "poisoned",
        "decompress_at_dst",
        "flit_bytes",
        "size_flits",
        "msg",
        "injected_cycle",
        "ejected_cycle",
        "compressed_at_hop",
        "decompressed_at_hop",
        "hops_traversed",
        "seq",
        "crc",
        "retransmissions",
    )

    def __init__(
        self,
        ptype: PacketType,
        src: int,
        dst: int,
        flit_bytes: int = 8,
        line: Optional[bytes] = None,
        compressed: Optional[CompressedLine] = None,
        is_compressed: bool = False,
        compressible: bool = False,
        decompress_at_dst: bool = False,
        msg: Any = None,
    ):
        self.pid = next(_packet_ids)
        self.ptype = ptype
        #: ``ptype.vnet``, read on every VC allocation and injection.
        self.vnet = ptype.vnet
        self.src = src
        self.dst = dst
        self.flit_bytes = flit_bytes
        self.line = line
        self.compressed = compressed
        self.is_compressed = is_compressed
        self.compressible = compressible
        #: Set by a compression-engine fault: the packet's engine output is
        #: untrusted, so it travels on the uncompressed fallback path and
        #: the DISCO arbitrator never reconsiders it (graceful degradation).
        self.poisoned = False
        self.decompress_at_dst = decompress_at_dst
        self.msg = msg
        self.injected_cycle = -1
        self.ejected_cycle = -1
        self.compressed_at_hop = -1
        self.decompressed_at_hop = -1
        self.hops_traversed = 0
        #: Per-(src, dst, vnet) sequence number stamped by the reliability
        #: layer at send (-1 when retransmission is off or traffic is local).
        self.seq = -1
        #: CRC-32 of the payload at send time (None when unprotected); the
        #: destination NI recomputes it before accepting a delivery.
        self.crc: Optional[int] = None
        #: How many times the reliability layer re-sent this packet.
        self.retransmissions = 0
        if is_compressed and compressed is None:
            raise ValueError("is_compressed requires a compressed payload")
        self.size_flits = self._current_size()

    # -- sizing ------------------------------------------------------------
    def _current_size(self) -> int:
        if self.line is None and self.compressed is None:
            return 1  # control packet: head flit only
        if self.is_compressed:
            assert self.compressed is not None
            return 1 + self.compressed.flit_count(self.flit_bytes)
        assert self.line is not None
        return 1 + (len(self.line) + self.flit_bytes - 1) // self.flit_bytes

    @property
    def carries_data(self) -> bool:
        return self.line is not None or self.compressed is not None

    def uncompressed_size(self) -> int:
        """Flit count this packet would have in uncompressed form."""
        if not self.carries_data:
            return 1
        assert self.line is not None
        return 1 + (len(self.line) + self.flit_bytes - 1) // self.flit_bytes

    # -- state changes (performed by compressor engines / NIs) -------------
    def apply_compression(self, compressed: CompressedLine) -> int:
        """Switch the wire form to compressed; returns flits saved."""
        if self.is_compressed:
            raise ValueError("packet is already compressed")
        if not self.carries_data:
            raise ValueError("control packets cannot be compressed")
        before = self.size_flits
        self.compressed = compressed
        self.is_compressed = True
        self.size_flits = self._current_size()
        return before - self.size_flits

    def apply_decompression(self) -> int:
        """Switch the wire form back to uncompressed; returns flits added.

        The original line must be attached (the simulator keeps it so that
        payload equality checks stay cheap); real hardware would produce it
        from the decompressor.
        """
        if not self.is_compressed:
            raise ValueError("packet is not compressed")
        if self.line is None:
            raise ValueError("packet has no uncompressed line attached")
        before = self.size_flits
        self.is_compressed = False
        self.size_flits = self._current_size()
        return self.size_flits - before

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        form = "C" if self.is_compressed else "U"
        return (
            f"<Packet #{self.pid} {self.ptype.value} {self.src}->{self.dst} "
            f"{self.size_flits}f {form}>"
        )
