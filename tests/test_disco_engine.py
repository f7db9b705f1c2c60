"""DISCO engine and arbitrator unit tests (direct router manipulation)."""

import pytest

from repro.compression.registry import get_algorithm
from repro.core import DiscoConfig
from repro.core.disco_router import make_disco_router_factory
from repro.core.engine import JOB_COMPRESS, JOB_DECOMPRESS
from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.noc.router import VC_ACTIVE
from repro.noc.topology import PORT_EAST, PORT_WEST


def make_disco_network(**disco_kwargs):
    disco = DiscoConfig(**disco_kwargs)
    network = Network(
        NocConfig(), router_factory=make_disco_router_factory(disco)
    )
    return network


def stage_packet(router, packet, port=PORT_WEST, vc_index=1, flits=None,
                 out_port=PORT_EAST, state=VC_ACTIVE):
    """Place a packet into an input VC as if it had (partially) arrived."""
    vc = router.inputs[port][vc_index]
    vc.packet = packet
    vc.state = state
    vc.out_port = out_port
    received = packet.size_flits if flits is None else flits
    vc.flits_received = received
    vc.flits_present = received
    if state == VC_ACTIVE and out_port != 0:
        neighbor = router.topology.neighbor[router.node][out_port]
        vc.out_vc = router.network.routers[neighbor].inputs[PORT_WEST][vc_index]
    return vc


def data_packet(line=None, compressible=True, **kwargs):
    line = line if line is not None else b"\x05" * 64
    return Packet(
        PacketType.RESPONSE, 0, 3, line=line, compressible=compressible,
        **kwargs,
    )


class TestEngineAdmission:
    def test_accepts_streaming_candidate(self):
        network = make_disco_network()
        router = network.routers[5]
        vc = stage_packet(router, data_packet(), flits=3)
        assert router.engine.can_accept(vc, JOB_COMPRESS)

    def test_rejects_partially_sent(self):
        network = make_disco_network()
        router = network.routers[5]
        vc = stage_packet(router, data_packet())
        vc.flits_sent = 1
        assert not router.engine.can_accept(vc, JOB_COMPRESS)

    def test_rejects_single_flit_received(self):
        network = make_disco_network()
        router = network.routers[5]
        vc = stage_packet(router, data_packet(), flits=1)
        assert not router.engine.can_accept(vc, JOB_COMPRESS)

    def test_rejects_incompressible_flag(self):
        network = make_disco_network()
        router = network.routers[5]
        vc = stage_packet(router, data_packet(compressible=False))
        assert not router.engine.can_accept(vc, JOB_COMPRESS)

    def test_decompress_needs_whole_packet(self):
        network = make_disco_network()
        router = network.routers[5]
        algo = get_algorithm("delta")
        line = b"\x05" * 64
        packet = Packet(
            PacketType.RESPONSE, 0, 3, line=line,
            compressed=algo.compress(line), is_compressed=True,
            decompress_at_dst=True,
        )
        vc = stage_packet(router, packet, flits=1)
        assert not router.engine.can_accept(vc, JOB_DECOMPRESS)
        vc.flits_received = packet.size_flits
        vc.flits_present = packet.size_flits
        assert router.engine.can_accept(vc, JOB_DECOMPRESS)

    def test_capacity_limit(self):
        network = make_disco_network()
        router = network.routers[5]
        vc_a = stage_packet(router, data_packet(), port=PORT_WEST, flits=4)
        vc_b = stage_packet(router, data_packet(), port=PORT_EAST, flits=4,
                            out_port=PORT_WEST)
        router.engine.start(vc_a, JOB_COMPRESS, cycle=0)
        assert not router.engine.can_accept(vc_b, JOB_COMPRESS)


class TestStreamingCompression:
    def test_streaming_job_completes_and_shrinks(self):
        network = make_disco_network()
        router = network.routers[5]
        packet = data_packet()
        vc = stage_packet(router, packet, flits=3)
        job = router.engine.start(vc, JOB_COMPRESS, cycle=0)
        assert job.separate
        # Stream in the remaining flits over a few engine ticks, the way
        # accept_flit would (one increment per arriving flit).
        cycle = 1
        while not packet.is_compressed and cycle < 20:
            if vc.flits_received < 9:
                vc.flits_received += 1
                vc.flits_present += 1
            router.engine.tick(cycle)
            cycle += 1
        assert packet.is_compressed
        assert packet.size_flits < 9
        assert vc.flits_present == packet.size_flits
        assert vc.flits_received == packet.size_flits
        assert network.stats.compressions == 1
        assert network.stats.separate_compressions == 1

    def test_committed_job_locks_scheduling(self):
        network = make_disco_network()
        router = network.routers[5]
        packet = data_packet()
        vc = stage_packet(router, packet, flits=4)
        job = router.engine.start(vc, JOB_COMPRESS, cycle=0)
        router.engine.tick(1)  # consumes flits -> committed
        assert job.committed
        assert not router._can_send(vc)
        with pytest.raises(RuntimeError):
            router.engine.abort(vc)

    def test_incompressible_streaming_restores_buffer(self):
        import random

        network = make_disco_network()
        router = network.routers[5]
        line = random.Random(3).getrandbits(512).to_bytes(64, "little")
        packet = data_packet(line=line)
        vc = stage_packet(router, packet, flits=9)
        # whole packet present but force separate path via partial receive
        vc.flits_received = 4
        vc.flits_present = 4
        router.engine.start(vc, JOB_COMPRESS, cycle=0)
        vc.flits_received = 9
        vc.flits_present = 9 - 0  # remaining arrive
        for cycle in range(1, 6):
            router.engine.tick(cycle)
        assert not packet.is_compressed
        assert not packet.compressible  # never retried
        assert vc.flits_present == 9
        assert network.stats.incompressible == 1


class TestWholePacketJobs:
    def test_whole_compression_with_shadow_abort(self):
        network = make_disco_network()
        router = network.routers[5]
        packet = data_packet()
        vc = stage_packet(router, packet)  # fully buffered
        job = router.engine.start(vc, JOB_COMPRESS, cycle=0)
        assert not job.separate
        # The shadow is schedulable: the first flit leaving aborts the job.
        router._on_first_flit_sent(vc)
        assert vc.engine_job is None
        router.engine.tick(5)
        assert not packet.is_compressed
        assert network.stats.aborted_jobs == 1

    def test_decompression_inflates(self):
        network = make_disco_network()
        router = network.routers[5]
        algo = get_algorithm("delta")
        line = b"\x09" * 64
        compressed = algo.compress(line)
        packet = Packet(
            PacketType.RESPONSE, 0, 3, line=line, compressed=compressed,
            is_compressed=True, decompress_at_dst=True,
        )
        vc = stage_packet(router, packet)
        router.engine.start(vc, JOB_DECOMPRESS, cycle=0)
        for cycle in range(1, 6):
            router.engine.tick(cycle)
        assert not packet.is_compressed
        assert packet.size_flits == 9
        assert vc.flits_present == 9
        assert not packet.compressible  # no recompression ping-pong
        assert network.stats.decompressions == 1

    def test_blocking_mode_locks_all_jobs(self):
        network = make_disco_network(non_blocking=False)
        router = network.routers[5]
        vc = stage_packet(router, data_packet())
        router.engine.start(vc, JOB_COMPRESS, cycle=0)
        assert not router._can_send(vc)


class TestArbitrator:
    def test_confidence_equation_compress(self):
        network = make_disco_network(gamma=0.5)
        router = network.routers[5]
        vc = stage_packet(router, data_packet(), flits=4)
        # Pump up downstream occupancy.
        neighbor = network.routers[6]
        n_vc = neighbor.inputs[PORT_WEST][1]
        n_vc.flits_present = 5
        conf = router.arbitrator.confidence(vc, JOB_COMPRESS)
        assert conf == pytest.approx(5 + 0.5 * 0)

    def test_confidence_equation_decompress_hop_penalty(self):
        network = make_disco_network(alpha=0.5, beta=1.0)
        router = network.routers[5]
        algo = get_algorithm("delta")
        line = b"\x09" * 64
        packet = Packet(
            PacketType.RESPONSE, 0, 3, line=line,
            compressed=algo.compress(line), is_compressed=True,
            decompress_at_dst=True,
        )
        vc = stage_packet(router, packet)
        conf = router.arbitrator.confidence(vc, JOB_DECOMPRESS)
        # node 5 -> node 3: hop distance 2+1? (1,1)->(3,0): 2+1=3
        assert conf == pytest.approx(0 + 0 - 3.0)

    def test_threshold_gates_dispatch(self):
        network = make_disco_network(cc_threshold=100.0)
        router = network.routers[5]
        vc = stage_packet(router, data_packet(), flits=4)
        dispatched = router.arbitrator.consider([vc], cycle=0)
        assert dispatched == 0
        network2 = make_disco_network(cc_threshold=-1.0)
        router2 = network2.routers[5]
        vc2 = stage_packet(router2, data_packet(), flits=4)
        assert router2.arbitrator.consider([vc2], cycle=0) == 1
        assert vc2.engine_job is not None

    def test_control_packets_never_candidates(self):
        network = make_disco_network(cc_threshold=-1.0)
        router = network.routers[5]
        packet = Packet(PacketType.REQUEST, 0, 3)
        vc = stage_packet(router, packet)
        assert router.arbitrator.consider([vc], cycle=0) == 0
