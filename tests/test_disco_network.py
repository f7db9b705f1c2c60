"""DISCO-in-network integration tests under synthetic traffic."""

from repro.compression.registry import get_timing
from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.noc import Network, NocConfig
from repro.noc.traffic import SyntheticTraffic, TrafficConfig


def build_disco(rate=0.06, seed=3, cycles=800, **disco_kwargs):
    network = Network(
        NocConfig(),
        router_factory=make_disco_router_factory(DiscoConfig(**disco_kwargs)),
    )
    network.packet_priority = disco_priority
    decomp = get_timing("delta").decompression_cycles

    def eject(node, packet):
        if packet.is_compressed and packet.decompress_at_dst:
            packet.apply_decompression()
            network.stats.ni_decompressions += 1
            return decomp
        return 0

    network.eject_transform = eject
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=rate, seed=seed)
    )
    traffic.run(cycles)
    return network, traffic


def test_conservation_and_integrity_with_compression():
    network, traffic = build_disco()
    stats = network.stats
    assert stats.packets_ejected == traffic.generated
    assert stats.compressions > 0
    for packet in traffic.delivered:
        if packet.carries_data:
            assert not packet.is_compressed  # always raw at the endpoint
            assert len(packet.line) == 64


def test_compression_activity_grows_with_load():
    low, _ = build_disco(rate=0.02)
    high, _ = build_disco(rate=0.08)
    per_packet_low = low.stats.compressions / max(1, low.stats.packets_ejected)
    per_packet_high = high.stats.compressions / max(
        1, high.stats.packets_ejected
    )
    assert per_packet_high > per_packet_low


def test_flits_saved_reduce_link_traffic():
    disco, _ = build_disco(rate=0.06)
    baseline = Network(NocConfig())
    SyntheticTraffic(
        baseline, TrafficConfig(injection_rate=0.06, seed=3)
    ).run(800)
    assert disco.stats.flits_saved > 0
    assert disco.stats.link_flits < baseline.stats.link_flits


def test_decompressions_split_between_network_and_ni():
    network, _ = build_disco(rate=0.08)
    stats = network.stats
    total = stats.decompressions + stats.ni_decompressions
    assert total > 0
    # Every compressed data packet is decompressed exactly once somewhere:
    # compressions == decompressions (all RESPONSE packets here need raw).
    assert stats.compressions == total


def test_blocking_configuration_runs_clean():
    network, traffic = build_disco(rate=0.05, non_blocking=False)
    assert network.stats.packets_ejected == traffic.generated
    assert network.stats.aborted_jobs == 0


def test_whole_packet_only_mode():
    """separate_compression=False: wormhole 9-flit packets can't compress
    in 8-deep VCs, so no compressions happen — but nothing breaks."""
    network, traffic = build_disco(rate=0.05, separate_compression=False)
    assert network.stats.packets_ejected == traffic.generated
    assert network.stats.separate_compressions == 0


def test_engine_capacity_respected():
    network, _ = build_disco(rate=0.08)
    for router in network.routers:
        assert len(router.engine.jobs) <= 1
