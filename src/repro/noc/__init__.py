"""Cycle-level Network-on-Chip substrate (the BookSim substitution).

A fabric of 3-stage virtual-channel routers with credit-based wormhole
flow control (virtual cut-through and store-and-forward are also supported,
§3.3-A of the paper).  The fabric shape is pluggable — mesh (the Table 2
default), torus, ring, concentrated mesh — and each topology class holds
its one deterministic deadlock-free route.  Packets carry real cache-line
payloads so in-network compression operates on actual bytes.

Main entry points:

- :class:`repro.noc.network.Network` — builds the fabric, owns the cycle loop;
- :class:`repro.noc.flit.Packet` — the unit of transfer;
- :class:`repro.noc.config.NocConfig` — structural parameters (Table 2);
- :mod:`repro.noc.topology` — the Topology protocol, the four fabrics
  and their routes, and the name -> class table;
- :mod:`repro.noc.routing` — the dateline rule the wrap-around fabrics
  share;
- :mod:`repro.noc.traffic` — synthetic traffic drivers for NoC-only studies.
"""

from repro.noc.config import NocConfig, FlowControl
from repro.noc.flit import Packet, PacketType, VNET_REQUEST, VNET_RESPONSE
from repro.noc.topology import (
    ConcentratedMesh2D,
    Mesh2D,
    PORT_LOCAL,
    PORT_NAMES,
    Ring,
    Topology,
    Torus2D,
)
from repro.noc.network import Network
from repro.noc.reliability import (
    InvariantMonitor,
    InvariantViolation,
    ReliabilityLayer,
    payload_crc,
    squash_packet,
)
from repro.noc.stats import NetworkStats

__all__ = [
    "NocConfig",
    "FlowControl",
    "Packet",
    "PacketType",
    "VNET_REQUEST",
    "VNET_RESPONSE",
    "Topology",
    "Mesh2D",
    "Torus2D",
    "Ring",
    "ConcentratedMesh2D",
    "PORT_LOCAL",
    "PORT_NAMES",
    "Network",
    "NetworkStats",
    "ReliabilityLayer",
    "InvariantMonitor",
    "InvariantViolation",
    "payload_crc",
    "squash_packet",
]
