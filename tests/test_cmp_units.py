"""Unit tests for CMP-layer pieces: messages, schemes, config, core model."""

import pytest

from repro.cmp.config import SystemConfig
from repro.cmp.core_model import CoreModel
from repro.cmp.messages import Message, MessageKind
from repro.cmp.schemes import SCHEME_NAMES, make_scheme
from repro.core.config import DiscoConfig
from repro.core.scheduling import (
    PRIORITY_DEMOTED,
    PRIORITY_NORMAL,
    baseline_priority,
    disco_priority,
)
from repro.noc.flit import Packet, PacketType
from repro.workloads.trace import MemoryAccess


class TestMessages:
    def test_packet_type_mapping(self):
        assert MessageKind.GETS.packet_type is PacketType.REQUEST
        assert MessageKind.DATA.packet_type is PacketType.RESPONSE
        assert MessageKind.WB_DATA.packet_type is PacketType.RESPONSE
        assert MessageKind.INV.packet_type is PacketType.COHERENCE
        assert MessageKind.WB_ACK.packet_type is PacketType.COHERENCE
        assert MessageKind.MEM_READ.packet_type is PacketType.REQUEST
        assert MessageKind.MEM_WB.packet_type is PacketType.RESPONSE

    def test_data_kinds_require_payload(self):
        with pytest.raises(ValueError):
            Message(kind=MessageKind.DATA, addr=0, src=0, dst=1)
        message = Message(
            kind=MessageKind.DATA, addr=0, src=0, dst=1, data=b"\x00" * 64
        )
        assert message.kind.carries_data

    def test_raw_at_destination(self):
        data = b"\x00" * 64
        to_core = Message(kind=MessageKind.DATA, addr=0, src=0, dst=1,
                          data=data)
        to_bank = Message(kind=MessageKind.WB_DATA, addr=0, src=0, dst=1,
                          data=data)
        to_dram = Message(kind=MessageKind.MEM_WB, addr=0, src=0, dst=1,
                          data=data)
        assert to_core.needs_raw_at_dst  # MSHRs hold raw blocks (§1)
        assert not to_bank.needs_raw_at_dst  # banks store compressed
        assert to_dram.needs_raw_at_dst  # DRAM cannot hold compressed


class TestSchemes:
    def test_all_names_buildable(self):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name)
            assert scheme.name == name

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_scheme("magic")

    def test_latency_placement(self):
        cc = make_scheme("cc")
        assert cc.bank_read_decompress_cycles > 0
        assert not cc.ni_compression
        cnc = make_scheme("cnc")
        assert cnc.ni_compression and cnc.bank_read_decompress_cycles > 0
        disco = make_scheme("disco")
        assert disco.bank_read_decompress_cycles == 0
        assert disco.use_disco_routers
        ideal = make_scheme("ideal")
        assert ideal.store_compressed
        assert ideal.bank_read_decompress_cycles == 0

    def test_algorithm_propagates_into_disco_config(self):
        scheme = make_scheme("disco", algorithm="sc2")
        assert scheme.disco.algorithm == "sc2"
        assert scheme.compression_cycles == 6
        assert scheme.decompression_cycles == 8

    def test_custom_disco_config_respected(self):
        disco = DiscoConfig(cc_threshold=5.0)
        scheme = make_scheme("disco", disco=disco)
        assert scheme.disco.cc_threshold == 5.0


class TestSystemConfig:
    def test_table2_values(self):
        config = SystemConfig.table2()
        assert config.n_cores == 16
        assert config.llc_capacity_bytes == 4 * 1024 * 1024
        assert config.home_node(17) == 1

    def test_scaled_preserves_hierarchy_ratio(self):
        scaled = SystemConfig.scaled_4x4()
        l1_bytes = scaled.l1_sets * scaled.l1_ways * scaled.line_size
        assert l1_bytes * scaled.n_cores < scaled.llc_capacity_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(l1_sets=0)
        with pytest.raises(ValueError):
            SystemConfig(mc_nodes=(99,))
        with pytest.raises(ValueError):
            SystemConfig(core_window=0)


class TestCoreModel:
    def make_core(self, n=5, gap=3, warmup=0):
        trace = [MemoryAccess(gap, False, i) for i in range(n)]
        return CoreModel(0, trace, window=2, warmup=warmup)

    def test_issue_pacing(self):
        core = self.make_core(gap=5)
        assert not core.can_issue(cycle=4)
        assert core.can_issue(cycle=5)
        core.issued(5, was_hit=True)
        assert not core.can_issue(cycle=9)
        assert core.can_issue(cycle=10)

    def test_window_limits_outstanding(self):
        core = self.make_core(gap=1)
        core.issued(1, was_hit=False)
        core.issued(2, was_hit=False)
        assert core.outstanding == 2
        assert not core.can_issue(cycle=100)
        core.miss_completed(1, 50, primary=True)
        assert core.can_issue(cycle=100)

    def test_latency_accounting(self):
        core = self.make_core()
        core.issued(3, was_hit=False)
        core.miss_completed(3, 103, primary=True)
        assert core.stats.total_miss_latency == 100
        assert core.stats.avg_miss_latency == 100

    def test_warmup_excluded_from_measured(self):
        core = self.make_core(n=4, warmup=2)
        assert core.in_warmup()
        core.issued(1, was_hit=False)
        core.miss_completed(1, 11, primary=True, measured=False)
        assert core.stats.measured_primary_misses == 0
        core.issued(2, was_hit=True)
        assert core.in_warmup() is False
        core.issued(3, was_hit=False)
        core.miss_completed(3, 23, primary=True, measured=True)
        assert core.stats.measured_primary_misses == 1
        assert core.stats.avg_miss_latency == 20  # measured only

    def test_done(self):
        core = self.make_core(n=1)
        assert not core.done()
        core.issued(1, was_hit=True)
        assert core.done()

    def test_negative_outstanding_guard(self):
        core = self.make_core()
        with pytest.raises(RuntimeError):
            core.miss_completed(0, 1, primary=False)


class TestSchedulingPolicy:
    def test_baseline_uniform(self):
        data = Packet(PacketType.RESPONSE, 0, 1, line=b"\x00" * 64,
                      compressible=True)
        assert baseline_priority(data) == PRIORITY_NORMAL

    def test_disco_demotes_compressible_uncompressed(self):
        data = Packet(PacketType.RESPONSE, 0, 1, line=b"\x00" * 64,
                      compressible=True)
        assert disco_priority(data) == PRIORITY_DEMOTED

    def test_disco_restores_after_compression(self):
        from repro.compression import get_algorithm

        line = b"\x00" * 64
        packet = Packet(PacketType.RESPONSE, 0, 1, line=line,
                        compressible=True)
        packet.apply_compression(get_algorithm("delta").compress(line))
        assert disco_priority(packet) == PRIORITY_NORMAL

    def test_disco_keeps_control_normal(self):
        request = Packet(PacketType.REQUEST, 0, 1)
        assert disco_priority(request) == PRIORITY_NORMAL
