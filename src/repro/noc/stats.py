"""Event counters and latency accumulators for the NoC.

Every countable event feeds the Orion-style energy model
(:mod:`repro.energy.noc_energy`); latency accumulators feed the Fig. 5/6/8
performance metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class NetworkStats:
    """Aggregate NoC event counts for one simulation.

    Two of the energy model's counters are derived, not counted: a switch
    grant reads one flit out of an input buffer and moves it across the
    crossbar, so ``buffer_reads`` and ``crossbar_flits`` are read-only
    views of ``sa_grants``.  Being properties, they are not dataclass
    fields (``dataclasses.asdict`` omits them); the ``network`` counter
    group and the energy model read all three names.
    """

    cycles: int = 0
    packets_injected: int = 0
    packets_ejected: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0
    link_flits: int = 0
    buffer_writes: int = 0
    va_grants: int = 0
    sa_grants: int = 0
    sa_losses: int = 0

    # DISCO / compression events
    compressions: int = 0
    decompressions: int = 0
    separate_compressions: int = 0
    aborted_jobs: int = 0
    incompressible: int = 0
    flits_saved: int = 0
    #: Flits re-added to buffers by in-network decompression (the inverse
    #: of ``flits_saved``; the invariant monitor's flit-conservation check
    #: balances the two against injected/ejected/squashed totals).
    flits_restored: int = 0
    ni_compressions: int = 0
    ni_decompressions: int = 0
    eject_decompress_stall_cycles: int = 0

    # Latency accumulators
    total_packet_latency: int = 0
    # Plain dicts (not defaultdicts) so results stay friendly to
    # ``dataclasses.asdict`` and pickling across the runner's pool.
    latency_by_type: Dict[str, int] = field(default_factory=dict)
    count_by_type: Dict[str, int] = field(default_factory=dict)

    def record_ejection(self, ptype: str, latency: int) -> None:
        self.packets_ejected += 1
        self.total_packet_latency += latency
        self.latency_by_type[ptype] = (
            self.latency_by_type.get(ptype, 0) + latency
        )
        self.count_by_type[ptype] = self.count_by_type.get(ptype, 0) + 1

    @property
    def buffer_reads(self) -> int:
        """Flits read out of an input buffer: one per switch grant."""
        return self.sa_grants

    @property
    def crossbar_flits(self) -> int:
        """Flits across the crossbar: one per switch grant."""
        return self.sa_grants

    @property
    def avg_packet_latency(self) -> float:
        if self.packets_ejected == 0:
            return 0.0
        return self.total_packet_latency / self.packets_ejected

    def avg_latency_of(self, ptype: str) -> float:
        count = self.count_by_type.get(ptype, 0)
        if count == 0:
            return 0.0
        return self.latency_by_type[ptype] / count
