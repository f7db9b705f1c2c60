"""The DISCO router (§3.1, Fig. 2): baseline pipeline + engine + arbitrator.

Two components are added to the conventional 3-stage router: the *DISCO
compressor* attached to the input buffers, and the *DISCO arbitrator*
cooperating with RC/VA/SA.  The arbitrator sees the allocation losers the
moment they lose (the SA hook runs inside the SA stage) plus the packets
still waiting for a downstream VC (the VA hook, after RC), computes their
confidence and, when it clears the threshold, hands the packet to the
engine while the shadow copy stays schedulable in the VC.  The pipeline
itself is the base router's: its switch allocator applies the engine lock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm
from repro.core.arbitrator import DiscoArbitrator
from repro.core.config import DiscoConfig
from repro.core.engine import DiscoCompressorEngine
from repro.noc.config import NocConfig
from repro.noc.router import InputVC, Router

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network


class DiscoRouter(Router):
    """A mesh router with an in-network (de)compression engine."""

    def __init__(
        self,
        node: int,
        config: NocConfig,
        network: "Network",
        disco: DiscoConfig,
        algorithm: CompressionAlgorithm,
    ):
        super().__init__(node, config, network)
        self.engine = DiscoCompressorEngine(self, disco, algorithm)
        self.arbitrator = DiscoArbitrator(self, disco, self.engine)
        self._jobs_block = not disco.non_blocking

    def tick(self, cycle: Optional[int] = None) -> None:
        Router.tick(self, cycle)
        if self.engine.jobs:
            self.engine.tick(self.network.cycle)

    def has_work(self) -> bool:
        if self._bound or self.engine.jobs:
            return True
        return Router.has_work(self)

    # -- DISCO hook implementations ------------------------------------------
    def _post_switch_allocation(self, losers: List[InputVC]) -> None:
        if losers:
            self.arbitrator.consider(losers, self.network.cycle)

    def _post_vc_allocation(self, waiting: List[InputVC]) -> None:
        # Packets stuck in VC allocation are idle candidates too: they
        # have a routed direction but no downstream VC.
        self.arbitrator.consider(waiting, self.network.cycle)

    def _on_first_flit_sent(self, vc: InputVC) -> None:
        if vc.engine_job is not None:
            self.engine.abort(vc)


def make_disco_router_factory(
    disco: DiscoConfig,
    algorithm: Optional[CompressionAlgorithm] = None,
):
    """Router factory for :class:`repro.noc.network.Network`.

    One (cached) algorithm instance is shared by all routers — results are
    deterministic and the shared memo keeps simulation fast.
    """
    shared = algorithm or get_algorithm(disco.algorithm)

    def factory(node: int, config: NocConfig, network: "Network") -> DiscoRouter:
        return DiscoRouter(node, config, network, disco, shared)

    return factory
