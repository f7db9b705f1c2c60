"""Structural NoC parameters (paper Table 2 defaults)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.noc.topology import (
    TOPOLOGIES,
    Topology,
    min_vcs_per_vnet,
    topology_class,
)


class FlowControl(enum.Enum):
    """Flow-control policies discussed in §3.3-A.

    ``WORMHOLE`` (the Table 2 baseline) lets a packet's flits spread over
    several routers; ``VIRTUAL_CUT_THROUGH`` and ``STORE_AND_FORWARD`` keep
    whole packets within one node (a downstream VC is only granted when it
    can hold the entire packet), which is the property that makes
    whole-packet in-network compression trivially safe.
    """

    WORMHOLE = "wormhole"
    VIRTUAL_CUT_THROUGH = "vct"
    STORE_AND_FORWARD = "saf"


@dataclass(frozen=True)
class NocConfig:
    """Fabric/router structural configuration.

    Defaults reproduce the paper's Table 2: 4x4 mesh, XY routing, 3
    pipeline stages, wormhole flow control, 8-flit buffers, 2 virtual
    channels, 64-bit flits.

    ``topology`` selects the fabric ("mesh", "torus", "ring", "cmesh"),
    which brings its one deadlock-free route.  ``width``/``height``
    shape the grid fabrics; the ring reuses ``width * height`` as its
    node count and the cmesh multiplies it by ``concentration``.
    """

    width: int = 4
    height: int = 4
    vnets: int = 2
    vcs_per_vnet: int = 1
    vc_depth: int = 8
    flit_bytes: int = 8
    flow_control: FlowControl = FlowControl.WORMHOLE
    topology: str = "mesh"
    concentration: int = 4  # terminals per hub (cmesh only)
    max_line_bytes: int = 64  # largest cache line the fabric carries
    # -- reliability layer (repro.noc.reliability; all off by default so
    # the Table 2 mesh stays bit-identical to the golden digests) --------
    #: Enable the NI retransmission protocol: per-(src, dst, vnet)
    #: sequence numbers + CRC, a bounded source replay buffer, duplicate
    #: suppression and ack/NACK-driven re-delivery.
    retransmission: bool = False
    #: Cycles without an ack before the first retransmission of a packet.
    #: The clock starts at ``Network.send``, so the window must cover the
    #: source NI queueing delay + fabric traversal + the ack's return trip
    #: under congestion (p99 one-way latency at campaign loads is ~800
    #: cycles, and the ack+retransmit load feeds back into it); too small
    #: a value turns ordinary queueing into a retransmit storm of
    #: duplicates.  At 4096 a fault-free campaign retransmits nothing.
    retx_timeout: int = 4096
    #: Retransmission attempts per packet before it is abandoned to the
    #: integrity layer's loss detection.
    retx_max_retries: int = 8
    #: Invariant-monitor check interval in cycles; 0 disables the monitor
    #: (the default — no component is registered, digests unchanged).
    invariant_interval: int = 0
    #: Consecutive no-progress checks before a VC is declared stalled.
    invariant_patience: int = 8
    #: When the monitor finds a stalled VC: squash it and requeue the
    #: victim through the retransmission path (needs ``retransmission``)
    #: instead of raising :class:`InvariantViolation`.
    invariant_recovery: bool = False
    # -- telemetry layer (repro.telemetry; all off by default so the
    # Table 2 mesh stays bit-identical to the golden digests) ------------
    #: Time-series sampling interval in cycles; 0 disables the sampler
    #: (the default — no component is registered, digests unchanged).
    stats_interval: int = 0
    #: Enable per-packet lifecycle tracing (repro.telemetry.tracer).
    trace_packets: bool = False
    #: Trace every Nth injected packet (1 = every packet).
    trace_sample_interval: int = 1

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("fabric dimensions must be positive")
        if self.vnets < 1 or self.vcs_per_vnet < 1:
            raise ValueError("need at least one VC per vnet")
        if self.vc_depth < 1:
            raise ValueError("vc_depth must be positive")
        if self.flit_bytes < 1:
            raise ValueError("flit_bytes must be positive")
        if self.concentration < 1:
            raise ValueError("concentration must be at least 1")
        if self.max_line_bytes < 1:
            raise ValueError("max_line_bytes must be positive")
        if self.retx_timeout < 1:
            raise ValueError("retx_timeout must be at least 1 cycle")
        if self.retx_max_retries < 1:
            raise ValueError("retx_max_retries must be at least 1")
        if self.invariant_interval < 0:
            raise ValueError("invariant_interval must be >= 0 (0 disables)")
        if self.invariant_patience < 1:
            raise ValueError("invariant_patience must be at least 1")
        if self.stats_interval < 0:
            raise ValueError("stats_interval must be >= 0 (0 disables)")
        if self.trace_sample_interval < 1:
            raise ValueError("trace_sample_interval must be at least 1")
        if self.invariant_recovery and not self.retransmission:
            raise ValueError(
                "invariant_recovery requeues victims through the "
                "retransmission path; enable retransmission too"
            )
        if self.invariant_recovery and self.invariant_interval == 0:
            raise ValueError(
                "invariant_recovery needs the monitor: set "
                "invariant_interval > 0"
            )
        # Building the fabric once rejects an unknown name and a shape the
        # fabric cannot take (a torus side under 2, a one-node ring).
        self.make_topology()
        needed = min_vcs_per_vnet(self.topology)
        if self.vcs_per_vnet < needed:
            raise ValueError(
                f"the {self.topology} route uses dateline escape VCs and "
                f"needs vcs_per_vnet >= {needed} (got {self.vcs_per_vnet})"
            )
        if self.flow_control is not FlowControl.WORMHOLE:
            if self.vc_depth < self.max_packet_flits:
                raise ValueError(
                    f"{self.flow_control.value} keeps whole packets per "
                    f"node: vc_depth ({self.vc_depth}) must be >= the max "
                    f"packet length ({self.max_packet_flits} flits for "
                    f"{self.max_line_bytes}-byte lines)"
                )

    @property
    def telemetry_enabled(self) -> bool:
        """True when any observability knob is on (the ``telemetry`` stat
        group is only registered — and snapshot layout only changes —
        in that case)."""
        return self.stats_interval > 0 or self.trace_packets

    @property
    def n_nodes(self) -> int:
        return TOPOLOGIES[self.topology].shape_nodes(
            self.width, self.height, self.concentration
        )

    @property
    def vcs_per_port(self) -> int:
        return self.vnets * self.vcs_per_vnet

    @property
    def max_packet_flits(self) -> int:
        """Longest packet the fabric carries: head flit + data flits for a
        full ``max_line_bytes`` line (see :class:`repro.noc.flit.Packet`)."""
        data_flits = -(-self.max_line_bytes // self.flit_bytes)
        return 1 + data_flits

    def vnet_vcs(self, vnet: int):
        """The VC indices belonging to a virtual network."""
        start = vnet * self.vcs_per_vnet
        return range(start, start + self.vcs_per_vnet)

    def escape_class_vcs(self, vnet: int, vc_class: int):
        """The VC indices of a dateline class within a vnet.

        Class 0 owns the first half of the vnet's VCs, class 1 the second
        half (``vcs_per_vnet >= 2`` is validated for dateline fabrics).
        """
        start = vnet * self.vcs_per_vnet
        half = self.vcs_per_vnet // 2
        if vc_class == 0:
            return range(start, start + half)
        return range(start + half, start + self.vcs_per_vnet)

    def make_topology(self) -> Topology:
        """Build the configured topology object."""
        return topology_class(self.topology).from_shape(
            self.width, self.height, self.concentration
        )
