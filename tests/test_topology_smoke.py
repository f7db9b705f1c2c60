"""Deadlock-freedom smoke tests for every fabric under random stress.

Each topology runs its default (deadlock-free) routing under open-loop
random traffic at a rate chosen to congest the fabric, across several
seeds and patterns, and must drain to quiescence with every generated
packet delivered — no watchdog, no wedge.  For the wrap-around fabrics
(torus, ring) this is the acceptance test of the dateline escape-VC
scheme: plain dimension-order routing on a torus *does* deadlock.

``REPRO_SMOKE_TOPOLOGY`` narrows the run to one fabric (the CI topology
matrix sets it per job).
"""

import os

import pytest

from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.noc import FlowControl, Network, NocConfig
from repro.noc.topology import min_vcs_per_vnet
from repro.noc.traffic import SyntheticTraffic, TrafficConfig

ALL_TOPOLOGIES = ("mesh", "torus", "ring", "cmesh")
_FILTER = os.environ.get("REPRO_SMOKE_TOPOLOGY", "")
TOPOLOGIES = (_FILTER,) if _FILTER else ALL_TOPOLOGIES

SEEDS = (1, 2, 3)


def smoke_config(topology: str, **overrides) -> NocConfig:
    return NocConfig(
        topology=topology, vcs_per_vnet=min_vcs_per_vnet(topology), **overrides
    )


def run_stress(config: NocConfig, seed: int, pattern: str = "uniform",
               cycles: int = 400, injection_rate: float = 0.08,
               router_factory=None) -> SyntheticTraffic:
    network = Network(config, router_factory=router_factory)
    if router_factory is not None:
        network.packet_priority = disco_priority

        def eject(node, packet):
            if packet.is_compressed and packet.decompress_at_dst:
                packet.apply_decompression()
                network.stats.ni_decompressions += 1
                return 2
            return 0

        network.eject_transform = eject
    traffic = SyntheticTraffic(
        network,
        TrafficConfig(
            pattern=pattern, injection_rate=injection_rate, seed=seed
        ),
    )
    # run() drains via run_until_quiescent, whose watchdog raises on a
    # wedged fabric — the deadlock check is the absence of that raise.
    traffic.run(cycles)
    assert network.quiescent()
    assert len(traffic.delivered) == traffic.generated
    return traffic


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_uniform_stress_drains(topology, seed):
    run_stress(smoke_config(topology), seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_adversarial_pattern_drains(topology, seed):
    # Transpose concentrates traffic on the dimension-order turn points
    # (and on the ring's datelines) — the classic deadlock provocation.
    run_stress(smoke_config(topology), seed, pattern="transpose")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_disco_routers_drain(topology, seed):
    # The DISCO router (compression engines + priority scheduling) rides
    # on the same fabric contract; it must not break deadlock freedom.
    run_stress(
        smoke_config(topology), seed,
        router_factory=make_disco_router_factory(DiscoConfig()),
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_vct_whole_packet_drains(topology):
    # VCT holds whole packets per node — a tighter buffer economy that
    # historically exposes allocation deadlocks first.
    config = smoke_config(
        topology,
        flow_control=FlowControl.VIRTUAL_CUT_THROUGH,
        vc_depth=10,
    )
    run_stress(config, seed=1)
