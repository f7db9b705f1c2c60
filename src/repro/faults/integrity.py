"""End-to-end payload integrity checking.

The :class:`IntegrityChecker` fingerprints every payload at the moment a
packet enters :meth:`Network.send` — before any NI transform, router
engine, or injected fault can touch it — and verifies the fingerprint at
delivery, after whatever (de)compression chain the scheme applied.  Any
byte that compression, the wire, or a fault flipped surfaces as a
mismatch; packets that never arrive surface at :meth:`finalize` as losses.

A violation carries a :class:`ReplayCapsule`: everything needed to rerun
the exact simulation that produced it (fault plan spec + seed) plus the
packet's route and per-hop compression history, so a corruption report is
a reproduction recipe rather than a shrug.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.noc.flit import Packet

#: Fingerprint fed for control packets (no payload to hash).
_CONTROL_SENTINEL = b"\x00control-packet\x00"


def payload_digest(packet: Packet) -> bytes:
    """Fingerprint of the packet's end-to-end payload contents."""
    data = packet.line if packet.line is not None else _CONTROL_SENTINEL
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class ReplayCapsule:
    """Everything needed to replay the run that produced a violation."""

    spec: str  #: human-readable campaign/plan description
    seed: int  #: fault-plan seed (drives the whole fault sequence)
    pid: int  #: packet id within the run
    src: int
    dst: int
    injected_cycle: int  #: cycle the fingerprint was taken (Network.send)
    detected_cycle: int  #: cycle the mismatch/loss was established
    hops_traversed: int
    compressed_at_hop: int  #: -1 if never router-compressed
    decompressed_at_hop: int  #: -1 if never router-decompressed
    is_compressed: bool  #: wire form at detection time
    poisoned: bool  #: engine fault marked it for the fallback path
    size_flits: int
    seq: int = -1  #: reliability-layer sequence number (-1: unprotected)
    retransmissions: int = 0  #: replay attempts observed at detection time

    def describe(self) -> str:
        hops = []
        if self.compressed_at_hop >= 0:
            hops.append(f"compressed@hop{self.compressed_at_hop}")
        if self.decompressed_at_hop >= 0:
            hops.append(f"decompressed@hop{self.decompressed_at_hop}")
        if self.poisoned:
            hops.append("poisoned")
        if self.seq >= 0:
            hops.append(
                f"seq {self.seq}, {self.retransmissions} retransmissions"
            )
        state = ", ".join(hops) if hops else "never touched an engine"
        return (
            f"packet #{self.pid} {self.src}->{self.dst} "
            f"(injected @{self.injected_cycle}, "
            f"detected @{self.detected_cycle}, "
            f"{self.hops_traversed} hops, {self.size_flits} flits, "
            f"{'compressed' if self.is_compressed else 'raw'} on wire; "
            f"{state}) under spec [{self.spec}] seed {self.seed}"
        )


@dataclass(frozen=True)
class IntegrityViolation:
    """One detected end-to-end failure (corruption or loss)."""

    reason: str  #: ``"corrupt"`` | ``"lost"`` | ``"untracked"``
    pid: int
    capsule: ReplayCapsule

    def describe(self) -> str:
        return f"{self.reason}: {self.capsule.describe()}"


class IntegrityError(RuntimeError):
    """A payload failed end-to-end verification.

    ``capsule`` (also reachable as ``violation.capsule``) pins down the
    run: replaying the same spec + seed reproduces the corruption
    deterministically.
    """

    def __init__(self, violation: IntegrityViolation):
        super().__init__(f"end-to-end integrity violation — {violation.describe()}")
        self.violation = violation
        self.capsule = violation.capsule


@dataclass
class _TrackedPacket:
    digest: bytes
    injected_cycle: int
    src: int
    dst: int
    seq: int = -1


@dataclass
class IntegrityChecker:
    """Fingerprint-at-send / verify-at-delivery bookkeeping."""

    spec: str = ""  #: stamped into every capsule
    seed: int = 0
    verified: int = 0  #: deliveries whose payload matched
    mismatches: int = 0
    lost: int = 0
    violations: List[IntegrityViolation] = field(default_factory=list)
    _tracked: Dict[int, _TrackedPacket] = field(default_factory=dict)

    # -- the two hook entry points ------------------------------------------
    def record(self, cycle: int, packet: Packet) -> None:
        """Fingerprint a packet as it enters the network."""
        self._tracked[packet.pid] = _TrackedPacket(
            payload_digest(packet), cycle, packet.src, packet.dst, packet.seq
        )

    def verify(
        self, cycle: int, node: int, packet: Packet
    ) -> Optional[IntegrityViolation]:
        """Check a delivered packet; returns the violation if it failed."""
        entry = self._tracked.pop(packet.pid, None)
        if entry is None:
            # Delivery of a packet record() never saw — a harness bug, but
            # report it through the same channel rather than crash.
            violation = IntegrityViolation(
                "untracked", packet.pid, self._capsule(cycle, packet)
            )
            self.violations.append(violation)
            return violation
        if payload_digest(packet) == entry.digest:
            self.verified += 1
            return None
        self.mismatches += 1
        violation = IntegrityViolation(
            "corrupt", packet.pid, self._capsule(cycle, packet)
        )
        self.violations.append(violation)
        return violation

    # -- end-of-run reconciliation ------------------------------------------
    def outstanding(self) -> Dict[int, "_TrackedPacket"]:
        """Packets fingerprinted but never delivered (so far)."""
        return dict(self._tracked)

    def finalize(self, cycle: int) -> List[IntegrityViolation]:
        """Turn every still-outstanding packet into a ``lost`` violation.

        Dropped packets, packets stuck behind a permanent wedge, and
        packets in flight when a watchdog fired all land here — loss is a
        *detected* outcome, never a silent one.  Returns the new
        violations.
        """
        new: List[IntegrityViolation] = []
        for pid, entry in sorted(self._tracked.items()):
            capsule = ReplayCapsule(
                spec=self.spec,
                seed=self.seed,
                pid=pid,
                src=entry.src,
                dst=entry.dst,
                injected_cycle=entry.injected_cycle,
                detected_cycle=cycle,
                hops_traversed=-1,  # unknown: the packet never arrived
                compressed_at_hop=-1,
                decompressed_at_hop=-1,
                is_compressed=False,
                poisoned=False,
                size_flits=-1,
                seq=entry.seq,
            )
            violation = IntegrityViolation("lost", pid, capsule)
            new.append(violation)
        self._tracked.clear()
        self.lost += len(new)
        self.violations.extend(new)
        return new

    # -- helpers -------------------------------------------------------------
    def _capsule(self, cycle: int, packet: Packet) -> ReplayCapsule:
        return ReplayCapsule(
            spec=self.spec,
            seed=self.seed,
            pid=packet.pid,
            src=packet.src,
            dst=packet.dst,
            injected_cycle=packet.injected_cycle,
            detected_cycle=cycle,
            hops_traversed=packet.hops_traversed,
            compressed_at_hop=packet.compressed_at_hop,
            decompressed_at_hop=packet.decompressed_at_hop,
            is_compressed=packet.is_compressed,
            poisoned=packet.poisoned,
            size_flits=packet.size_flits,
            seq=packet.seq,
            retransmissions=packet.retransmissions,
        )
