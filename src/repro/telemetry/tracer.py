"""Opt-in per-packet lifecycle tracing.

The :class:`PacketTracer` records point events along each sampled
packet's life — inject, per-hop head arrival / RC / VA / first-flit
switch grant / tail departure, engine compress/decompress enter/exit,
eject, plus the reliability layer's retransmit/CRC-reject/duplicate
events — through the same cheap ``if tracer is not None`` hook style the
fault layer uses in ``router.py`` / ``interface.py`` / ``network.py`` /
``reliability.py``.  Exporters (:mod:`repro.telemetry.export`) pair the
events into spans for Perfetto or stream them as JSONL.

Two safety valves keep tracing bounded:

- **sampling rate** — every ``sample_interval``-th *first-injected*
  packet is traced (a retransmitted clone inherits its original's
  decision, so a packet's lifecycle never goes half-recorded);
- **event cap** — a hard ceiling on recorded events; once reached,
  further events are counted as dropped, never stored.

The tracer only observes.  Every hook mutates tracer-private state
exclusively, so enabling it cannot change a simulation digest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import TelemetryStats

# Event kinds (the JSONL/export schema enumerates exactly these).
EV_INJECT = "inject"
EV_DROP = "drop"
EV_HOP = "hop"          # head flit landed in a router input VC
EV_RC = "rc"            # route computed
EV_VA = "va"            # downstream VC granted
EV_SA = "sa"            # first flit won switch allocation
EV_TAIL = "tail"        # tail flit left the router
EV_ENGINE = "engine"    # compress/decompress enter/exit/abort
EV_EJECT = "eject"
EV_RETX = "retx"
EV_CRC_REJECT = "crc_reject"
EV_DUP = "dup"

EVENT_KINDS = (
    EV_INJECT, EV_DROP, EV_HOP, EV_RC, EV_VA, EV_SA, EV_TAIL,
    EV_ENGINE, EV_EJECT, EV_RETX, EV_CRC_REJECT, EV_DUP,
)


class TraceEvent:
    """One lifecycle point event (lightweight: slots, no dataclass)."""

    __slots__ = ("cycle", "kind", "pid", "node", "info")

    def __init__(
        self, cycle: int, kind: str, pid: int, node: int, info: Tuple = ()
    ):
        self.cycle = cycle
        self.kind = kind
        self.pid = pid
        self.node = node
        self.info = info

    def to_dict(self) -> Dict:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "pid": self.pid,
            "node": self.node,
            "info": list(self.info),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceEvent({self.cycle}, {self.kind!r}, pid={self.pid}, "
            f"node={self.node}, {self.info!r})"
        )


class PacketTracer:
    """Sampled per-packet lifecycle event recorder."""

    def __init__(
        self,
        sample_interval: int = 1,
        event_cap: int = 200_000,
        stats: Optional[TelemetryStats] = None,
    ):
        if sample_interval < 1:
            raise ValueError("trace_sample_interval must be at least 1")
        if event_cap < 1:
            raise ValueError("trace_event_cap must be at least 1")
        self.sample_interval = sample_interval
        self.event_cap = event_cap
        self.stats = stats if stats is not None else TelemetryStats()
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._decided: Dict[int, bool] = {}
        self._injections_seen = 0

    # -- sampling -------------------------------------------------------------
    def _decide(self, pid: int) -> bool:
        """Trace every ``sample_interval``-th first-seen packet; clones
        (retransmissions share their original's pid) reuse the original
        decision so sampled lifecycles stay complete."""
        decision = self._decided.get(pid)
        if decision is None:
            decision = self._injections_seen % self.sample_interval == 0
            self._injections_seen += 1
            self._decided[pid] = decision
            if decision:
                self.stats.packets_traced += 1
        return decision

    def wants(self, pid: int) -> bool:
        """Hook-site guard: is this packet being traced?"""
        return self._decided.get(pid, False)

    def describe(self) -> str:
        return (
            f"1/{self.sample_interval} packets, "
            f"{len(self.events)}/{self.event_cap} events"
            + (f" ({self.dropped} dropped)" if self.dropped else "")
        )

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    # -- recording ------------------------------------------------------------
    def _record(
        self, cycle: int, kind: str, pid: int, node: int, info: Tuple = ()
    ) -> None:
        if len(self.events) >= self.event_cap:
            self.dropped += 1
            self.stats.trace_events_dropped += 1
            return
        self.events.append(TraceEvent(cycle, kind, pid, node, info))
        self.stats.trace_events += 1

    # -- hook sites (called by the NoC layers) --------------------------------
    def on_inject(self, cycle: int, packet, node: int) -> None:
        """Injection attempt at a source NI (or ``Network.send`` for
        same-tile traffic).  Makes the sampling decision."""
        if not self._decide(packet.pid):
            return
        self._record(
            cycle,
            EV_INJECT,
            packet.pid,
            node,
            (
                packet.src,
                packet.dst,
                packet.ptype.value,
                packet.size_flits,
                packet.retransmissions,
            ),
        )

    def on_ni_drop(self, cycle: int, packet, node: int) -> None:
        """An injected fault dropped the packet at the NI."""
        if self.wants(packet.pid):
            self._record(cycle, EV_DROP, packet.pid, node)

    def on_hop(self, cycle: int, packet, node: int, port: int, vc: int) -> None:
        """Head flit landed in a router input VC (buffer-write stage)."""
        if self.wants(packet.pid):
            self._record(cycle, EV_HOP, packet.pid, node, (port, vc))

    def on_route_computed(
        self, cycle: int, packet, node: int, out_port: int
    ) -> None:
        if self.wants(packet.pid):
            self._record(cycle, EV_RC, packet.pid, node, (out_port,))

    def on_vc_allocated(
        self, cycle: int, packet, node: int, out_port: int
    ) -> None:
        if self.wants(packet.pid):
            self._record(cycle, EV_VA, packet.pid, node, (out_port,))

    def on_switch_granted(
        self, cycle: int, packet, node: int, out_port: int
    ) -> None:
        """First flit of the packet won switch allocation at this router."""
        if self.wants(packet.pid):
            self._record(cycle, EV_SA, packet.pid, node, (out_port,))

    def on_tail_sent(self, cycle: int, packet, node: int, out_port: int) -> None:
        """Tail flit left the router (hop span closes here)."""
        if self.wants(packet.pid):
            self._record(cycle, EV_TAIL, packet.pid, node, (out_port,))

    def on_engine(
        self, cycle: int, packet, node: int, mode: str, what: str
    ) -> None:
        """Engine job lifecycle: ``what`` is start/end/abort/degraded for
        a ``mode`` of compress/decompress."""
        if self.wants(packet.pid):
            self._record(cycle, EV_ENGINE, packet.pid, node, (mode, what))

    def on_eject(self, cycle: int, packet, node: int) -> None:
        if self.wants(packet.pid):
            latency = cycle - packet.injected_cycle
            self._record(cycle, EV_EJECT, packet.pid, node, (latency,))

    def on_retransmit(self, cycle: int, packet, node: int) -> None:
        if self.wants(packet.pid):
            self._record(
                cycle, EV_RETX, packet.pid, node, (packet.retransmissions,)
            )

    def on_crc_reject(self, cycle: int, packet, node: int) -> None:
        if self.wants(packet.pid):
            self._record(cycle, EV_CRC_REJECT, packet.pid, node, (packet.seq,))

    def on_duplicate(self, cycle: int, packet, node: int) -> None:
        if self.wants(packet.pid):
            self._record(cycle, EV_DUP, packet.pid, node, (packet.seq,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PacketTracer({self.describe()})"
