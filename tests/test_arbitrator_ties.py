"""DISCO arbitration ties on routers with more than 8 VCs per port.

The arbitrator ranks candidates by confidence and breaks ties on the VC's
(port, vc index) position.  A key of ``port * 8 + vc_index`` collides once
a port has more than 8 VCs — (port 1, vc 9) and (port 2, vc 1) both give
17 — and two tied candidates with one key made the ranking compare the
``InputVC`` objects themselves (a ``TypeError``).
"""

from repro.core import DiscoConfig, make_disco_router_factory
from repro.core.engine import JOB_COMPRESS
from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.noc.router import VC_VA


def test_tied_candidates_whose_old_keys_collide():
    disco = DiscoConfig()
    network = Network(
        NocConfig(width=3, height=3, vcs_per_vnet=5),
        router_factory=make_disco_router_factory(disco),
    )
    router = network.routers[4]
    first, second = router.inputs[1][9], router.inputs[2][1]
    assert first.port * 8 + first.vc_index == second.port * 8 + second.vc_index
    out_port = 1
    for vc in (first, second):
        packet = Packet(
            PacketType.RESPONSE, 4, 5, line=bytes(range(64)),
            compressible=True, decompress_at_dst=True,
        )
        vc.accept_flit(packet, True)
        vc.accept_flit(packet, False)
        vc.out_port = out_port
        vc.state = VC_VA
    # Congest the downstream port so both clear the compression threshold.
    topology = network.topology
    downstream = network.routers[topology.neighbor[4][out_port]]
    downstream.inputs[topology.neighbor_port(4, out_port)][0].incoming = 3
    arbitrator = router.arbitrator
    conf = arbitrator.confidence(first, JOB_COMPRESS)
    assert conf == arbitrator.confidence(second, JOB_COMPRESS)
    assert conf > disco.cc_threshold

    assert arbitrator.consider([second, first], network.cycle) == 1
    # The tie goes to the lower (port, vc): port 1 before port 2.
    assert first.engine_job is not None
    assert second.engine_job is None
