"""Failure-injection and defensive-path tests.

These verify the simulator *fails loudly* on impossible states rather than
silently corrupting results — the property that made the protocol races of
DESIGN.md findable in the first place.
"""

import pytest

from repro.compression import CompressedLine, get_algorithm
from repro.cmp import CmpSystem, SystemConfig, make_scheme
from repro.cmp.messages import Message, MessageKind
from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.workloads import generate_traces, get_profile


class TestCompressionFailures:
    def test_truncated_sc2_bitstream_detected(self):
        algo = get_algorithm("sc2", cached=False)
        compressed = algo.compress(b"\x00" * 64)
        assert compressed.compressible
        generation, value, bits = compressed.payload
        corrupted = CompressedLine(
            algorithm="sc2",
            original_size_bits=512,
            size_bits=compressed.size_bits,
            payload=(generation, value, max(1, bits // 4)),
            compressible=True,
        )
        with pytest.raises(ValueError):
            algo.decompress(corrupted)

    def test_cross_algorithm_decompress_rejected(self):
        delta = get_algorithm("delta", cached=False)
        fpc = get_algorithm("fpc", cached=False)
        compressed = delta.compress(b"\x07" * 64)
        with pytest.raises(ValueError):
            fpc.decompress(compressed)


class TestNetworkFailures:
    def test_undrainable_network_raises(self):
        """A packet that can never eject trips the drain watchdog."""
        network = Network(NocConfig())
        network.set_delivery_handler(lambda n, p: None)
        network.send(Packet(PacketType.REQUEST, 0, 15))
        # Sabotage: wedge every input VC of the destination router forever.
        for vc in network.routers[15].all_vcs:
            vc.wedged_until = 1 << 60
        with pytest.raises(RuntimeError) as excinfo:
            network.run_until_quiescent(max_cycles=2000)
        # The exception alone must triage the wedge: which router, which
        # VC, which packet, how far it got, and what's still on the wire.
        message = str(excinfo.value)
        assert "wedge snapshot" in message
        assert "link flits in flight" in message
        assert "router 15" in message  # the stuck packet's current hop
        assert "REQUEST(0->15" in message  # the held packet and its route
        assert "0/1 sent" in message  # per-VC send progress
        assert "state=" in message  # pipeline stage of the stuck VC

    def test_watchdog_catches_stuck_simulation(self):
        config = SystemConfig.scaled_4x4()
        traces = generate_traces(get_profile("swaptions"), 16, 50, seed=1)
        system = CmpSystem(config, make_scheme("baseline"), traces)
        # Sabotage: drop every packet instead of delivering it.
        system.network.set_delivery_handler(lambda n, p: None)
        with pytest.raises(RuntimeError) as excinfo:
            system.run(max_cycles=500_000, stall_limit=20_000)
        # The CMP watchdog attaches both views: per-router VC state from
        # the network plus the protocol-level in-flight accounting.
        message = str(excinfo.value)
        assert "simulation wedged" in message
        assert "wedge snapshot" in message
        assert "cores unfinished" in message
        assert "misses in flight" in message
        assert "bank transactions pending" in message


class TestBankDefenses:
    def build_system(self):
        config = SystemConfig.scaled_4x4()
        traces = generate_traces(get_profile("swaptions"), 16, 20, seed=1)
        return CmpSystem(config, make_scheme("baseline"), traces,
                         prefill=False)

    def test_unexpected_inv_ack_raises(self):
        system = self.build_system()
        bank = system.banks[0]
        with pytest.raises(RuntimeError):
            bank._inv_ack(
                Message(kind=MessageKind.INV_ACK, addr=0, src=1, dst=0)
            )

    def test_unexpected_recall_reply_raises(self):
        system = self.build_system()
        bank = system.banks[0]
        with pytest.raises(RuntimeError):
            bank._recall_reply(
                Message(kind=MessageKind.RECALL_NACK, addr=0, src=1, dst=0),
                None,
            )

    def test_unexpected_mem_data_raises(self):
        system = self.build_system()
        bank = system.banks[0]
        with pytest.raises(RuntimeError):
            bank._mem_data(
                Message(kind=MessageKind.MEM_DATA, addr=0, src=0, dst=0,
                        data=b"\x00" * 64),
                None,
            )

    def test_dram_rejects_compressed_line(self):
        system = self.build_system()
        algo = get_algorithm("delta")
        line = b"\x01" * 64
        packet = Packet(
            PacketType.RESPONSE, 0, 0, line=line,
            compressed=algo.compress(line), is_compressed=True,
        )
        msg = Message(kind=MessageKind.MEM_WB, addr=0, src=0, dst=0,
                      data=line)
        with pytest.raises(RuntimeError):
            system._memory_request(msg, packet)


class TestEngineDefenses:
    def test_double_start_rejected(self):
        from repro.core import DiscoConfig, make_disco_router_factory
        from repro.core.engine import JOB_COMPRESS

        network = Network(
            NocConfig(),
            router_factory=make_disco_router_factory(DiscoConfig()),
        )
        router = network.routers[0]
        vc = router.inputs[2][1]
        packet = Packet(PacketType.RESPONSE, 0, 3, line=b"\x05" * 64,
                        compressible=True)
        vc.packet = packet
        vc.flits_received = 4
        vc.flits_present = 4
        vc.out_port = 1
        router.engine.start(vc, JOB_COMPRESS, cycle=0)
        with pytest.raises(RuntimeError):
            router.engine.start(vc, JOB_COMPRESS, cycle=0)
