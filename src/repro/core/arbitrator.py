"""The DISCO arbitrator: candidate filtering + confidence counting (§3.2).

Step-1 hands the arbitrator this cycle's allocation losers — packets that
wanted an output port or a downstream VC and did not get one.  Step-2
computes a *confidence* per candidate from the same credit signals the flow
control already maintains:

- ``credit_in{RC(p)}``: occupancy of the downstream input port the packet
  is routed toward (remote pressure — the paper reuses the credit_in wires
  from the adjacent router);
- ``credit_out{VA(p)}``: flits buffered locally that contend for the same
  output port (local pressure — reusing the local VA's credit_out);
- ``RC_Hop(p)``: remaining hop distance, used only for decompression to
  avoid *early* decompression that would re-inflate traffic (Eq. 2).

Both signals are expressed as occupancies so that higher confidence means
more congestion, i.e. a longer expected idle time to hide the engine
latency in.  A candidate is dispatched only when its confidence clears the
per-direction threshold (CCth for compression, CDth for decompression).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.config import DiscoConfig
from repro.core.engine import (
    JOB_COMPRESS,
    JOB_DECOMPRESS,
    DiscoCompressorEngine,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.router import InputVC, Router


class DiscoArbitrator:
    """Selects which idling packet (if any) enters the compressor."""

    def __init__(
        self,
        router: "Router",
        config: DiscoConfig,
        engine: DiscoCompressorEngine,
    ):
        self.router = router
        self.config = config
        self.engine = engine
        self.considered = 0
        self.dispatched = 0

    # -- step 1: the packet filter ------------------------------------------
    def _mode_for(self, vc: "InputVC") -> Optional[str]:
        packet = vc.packet
        if packet is None or not packet.carries_data:
            return None
        if packet.poisoned:
            # An engine fault already hit this packet; it stays on the
            # uncompressed / NI-decompression fallback path.
            return None
        if vc.out_port < 0:
            return None  # RC has not resolved a direction yet
        if packet.is_compressed and packet.decompress_at_dst:
            return JOB_DECOMPRESS
        if not packet.is_compressed and packet.compressible:
            return JOB_COMPRESS
        return None

    # -- step 2: confidence counting ------------------------------------------
    def confidence(self, vc: "InputVC", mode: str) -> float:
        """Eq. (1) / Eq. (2) of the paper."""
        remote = self.router.downstream_occupancy(vc.out_port)
        local = self.router.local_contention(vc.out_port, vc)
        if mode == JOB_COMPRESS:
            return remote + self.config.gamma * local
        packet = vc.packet
        assert packet is not None
        hops = self.router.topology.hop_distance(self.router.node, packet.dst)
        return remote + self.config.alpha * local - self.config.beta * hops

    def _threshold(self, mode: str) -> float:
        if mode == JOB_COMPRESS:
            return self.config.cc_threshold
        return self.config.cd_threshold

    # -- steps 1+2+3 glue --------------------------------------------------------
    def consider(self, candidates: Iterable["InputVC"], cycle: int) -> int:
        """Evaluate this cycle's idle candidates; dispatch the best.

        Returns the number of jobs dispatched (bounded by engine capacity).
        """
        if not self.engine.has_capacity():
            return 0
        scored: List[Tuple[float, int, "InputVC", str]] = []
        for vc in candidates:
            mode = self._mode_for(vc)
            if mode is None:
                continue
            if not self.engine.can_accept(vc, mode):
                continue
            self.considered += 1
            conf = self.confidence(vc, mode)
            if conf > self._threshold(mode):
                # Tie-break deterministically by (port, vc index): the
                # scan key is unique per VC, so the VC is never compared.
                scored.append((conf, -vc.scan_key, vc, mode))
        dispatched = 0
        scored.sort(reverse=True)
        for _, _, vc, mode in scored:
            if not self.engine.has_capacity():
                break
            if vc.engine_job is not None:
                continue
            self.engine.start(vc, mode, cycle)
            dispatched += 1
            self.dispatched += 1
        return dispatched
