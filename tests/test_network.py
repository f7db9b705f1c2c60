"""Cycle-level NoC tests: delivery, conservation, flow-control variants."""

import pytest

from repro.noc import Network, NocConfig
from repro.noc.config import FlowControl
from repro.noc.flit import Packet, PacketType
from repro.noc.network import ArrivalQueue
from repro.noc.traffic import SyntheticTraffic, TrafficConfig


def make_network(**kwargs):
    return Network(NocConfig(**kwargs))


def send_and_drain(network, packets):
    delivered = []
    network.set_delivery_handler(lambda node, p: delivered.append((node, p)))
    for packet in packets:
        network.send(packet)
    network.run_until_quiescent()
    return delivered


class TestBasicDelivery:
    def test_single_control_packet(self):
        network = make_network()
        packet = Packet(PacketType.REQUEST, 0, 15)
        delivered = send_and_drain(network, [packet])
        assert delivered == [(15, packet)]
        assert packet.ejected_cycle > packet.injected_cycle

    def test_single_data_packet_latency(self):
        network = make_network()
        packet = Packet(PacketType.RESPONSE, 0, 15, line=b"\x00" * 64)
        send_and_drain(network, [packet])
        latency = packet.ejected_cycle - packet.injected_cycle
        # 6 hops x ~4 cycles + 9-flit serialization, at zero load.
        assert 20 <= latency <= 45
        assert packet.hops_traversed == 6

    def test_neighbor_vs_corner_latency(self):
        near = Packet(PacketType.REQUEST, 0, 1)
        far = Packet(PacketType.REQUEST, 0, 15)
        network = make_network()
        send_and_drain(network, [near, far])
        assert (near.ejected_cycle - near.injected_cycle) < (
            far.ejected_cycle - far.injected_cycle
        )

    def test_local_delivery(self):
        network = make_network()
        packet = Packet(PacketType.RESPONSE, 3, 3, line=b"\x00" * 64)
        delivered = send_and_drain(network, [packet])
        assert delivered == [(3, packet)]

    def test_bad_nodes_rejected(self):
        network = make_network()
        with pytest.raises(ValueError):
            network.send(Packet(PacketType.REQUEST, 0, 99))
        with pytest.raises(ValueError):
            network.send(Packet(PacketType.REQUEST, -1, 3))


class TestConservation:
    @pytest.mark.parametrize("rate", [0.02, 0.08])
    def test_no_packet_loss_uniform(self, rate):
        network = make_network()
        traffic = SyntheticTraffic(
            network, TrafficConfig(injection_rate=rate, seed=5)
        )
        traffic.run(800)
        assert network.stats.packets_ejected == traffic.generated
        assert network.stats.flits_injected == network.stats.flits_ejected

    def test_payload_integrity(self):
        network = make_network()
        traffic = SyntheticTraffic(
            network,
            TrafficConfig(injection_rate=0.05, seed=6, compressible=False),
        )
        traffic.run(500)
        for packet in traffic.delivered:
            if packet.carries_data:
                assert len(packet.line) == 64

    def test_transpose_and_hotspot_patterns(self):
        for pattern in ("transpose", "hotspot"):
            network = make_network()
            traffic = SyntheticTraffic(
                network,
                TrafficConfig(pattern=pattern, injection_rate=0.03, seed=2),
            )
            traffic.run(400)
            assert network.stats.packets_ejected == traffic.generated


class TestFlowControlVariants:
    def test_vct_requires_whole_packet_space(self):
        config = NocConfig(
            flow_control=FlowControl.VIRTUAL_CUT_THROUGH, vc_depth=10
        )
        network = Network(config)
        packet = Packet(PacketType.RESPONSE, 0, 3, line=b"\x00" * 64)
        delivered = send_and_drain(network, [packet])
        assert len(delivered) == 1

    def test_vct_rejects_undersized_buffers(self):
        # Construction-time: vc_depth < max packet length is a config error.
        with pytest.raises(ValueError, match="vc_depth"):
            NocConfig(
                flow_control=FlowControl.VIRTUAL_CUT_THROUGH, vc_depth=4
            )
        # Runtime backstop: a packet larger than the declared max_line_bytes
        # still trips the whole-packet invariant at VC allocation.
        config = NocConfig(
            flow_control=FlowControl.VIRTUAL_CUT_THROUGH,
            vc_depth=10,
            max_line_bytes=64,
        )
        network = Network(config)
        network.set_delivery_handler(lambda n, p: None)
        network.send(Packet(PacketType.RESPONSE, 0, 3, line=b"\x00" * 128))
        with pytest.raises(RuntimeError):
            network.run_until_quiescent()

    def test_store_and_forward_delivers(self):
        config = NocConfig(
            flow_control=FlowControl.STORE_AND_FORWARD, vc_depth=12
        )
        network = Network(config)
        packet = Packet(PacketType.RESPONSE, 0, 15, line=b"\x00" * 64)
        delivered = send_and_drain(network, [packet])
        assert len(delivered) == 1
        # SAF buffers the whole packet per hop: strictly slower than WH.
        wormhole = make_network()
        p2 = Packet(PacketType.RESPONSE, 0, 15, line=b"\x00" * 64)
        send_and_drain(wormhole, [p2])
        assert (packet.ejected_cycle - packet.injected_cycle) > (
            p2.ejected_cycle - p2.injected_cycle
        )


class TestVirtualNetworks:
    def test_vnet_separation(self, monkeypatch):
        """Responses and requests use disjoint VC classes."""
        network = make_network()
        seen_vcs = {0: set(), 1: set()}
        original = ArrivalQueue.schedule

        # Every link hop a router sends goes through the arrival queue.
        def spy(self, due, target_vc, packet, is_head, is_tail):
            seen_vcs[packet.ptype.vnet].add(target_vc.vc_index)
            original(self, due, target_vc, packet, is_head, is_tail)

        monkeypatch.setattr(ArrivalQueue, "schedule", spy)
        packets = [
            Packet(PacketType.REQUEST, 0, 15),
            Packet(PacketType.RESPONSE, 0, 15, line=b"\x00" * 64),
        ]
        send_and_drain(network, packets)
        assert PacketType.REQUEST.vnet == 0 and PacketType.RESPONSE.vnet == 1
        assert seen_vcs[0] and seen_vcs[1]
        assert not seen_vcs[0] & seen_vcs[1]
        for vnet, vcs in seen_vcs.items():
            assert vcs == set(network.config.vnet_vcs(vnet))


class TestQuiescence:
    def test_quiescent_initially(self):
        assert make_network().quiescent()

    def test_not_quiescent_with_traffic(self):
        network = make_network()
        network.set_delivery_handler(lambda n, p: None)
        network.send(Packet(PacketType.REQUEST, 0, 15))
        assert not network.quiescent()
        network.run_until_quiescent()
        assert network.quiescent()


class TestRouteCache:
    def test_route_stores_the_topology_decision_on_first_use(self):
        network = Network(NocConfig())
        assert network._route_cache == {}
        decision = network.route(0, 15)
        assert decision == network.topology.route(0, 15)
        assert network._route_cache == {(0, 15): decision}
        assert network.route(0, 15) is decision
