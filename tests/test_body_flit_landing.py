"""Body flits land without waking their router: the invariant behind it.

A link arrival (``ArrivalQueue.tick``) or an NI injection
(``NetworkInterface._advance_stream``) wakes the target router only for a
head flit.  A body flit lands in a VC its packet already holds, and a
router with a bound VC asks for the next cycle after every visit, so the
kernel has already queued it: for the current cycle when the flit comes
off a link (``net.arrivals`` sweeps before ``net.routers``), for the next
cycle when the NI injects it (``net.nis`` sweeps after ``net.routers``).

The invariant tests check both facts at every body-flit landing, before
the landing runs, across the configurations that stress it: the five
golden specs, whole-packet flow control, a torus with escape VCs, DISCO
without non-blocking compression and a fault campaign whose recovery
squashes packets out of the fabric.  The landing tests pin the inlined
landing to ``InputVC.accept_flit`` for a non-head flit.
"""

import pytest

from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.faults import (
    PERMANENT,
    CampaignSpec,
    FaultPlan,
    ScheduledFault,
    run_fault_campaign,
)
from repro.noc import FlowControl, Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.noc.interface import NetworkInterface
from repro.noc.network import ArrivalQueue
from repro.noc.router import InputVC
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from repro.noc.topology import PORT_LOCAL

GOLDEN_SCHEMES = ("baseline", "cc", "cnc", "disco", "ideal")


class Landings:
    """Body-flit landings checked, by producer."""

    def __init__(self):
        self.link = 0
        self.ni = 0


def _queued_for(kernel, router):
    """The cycle the kernel has queued ``router`` for, or None.

    A router is queued when its bit is set in its phase's active set;
    that set holds this cycle's visits until the phase is swept and the
    next cycle's from then on.
    """
    reg = kernel._reg_of[id(router)]
    phase = reg.phase
    if not phase.due & reg.bit:
        return None
    sweeping = kernel._sweep_index
    swept = sweeping is not None and phase.index <= sweeping
    return kernel.cycle + 1 if swept else kernel.cycle


@pytest.fixture
def landings(monkeypatch):
    """Check the invariant ahead of every body-flit landing.

    Installed on the classes before any network is built, so the kernel's
    tick binding of each ``ArrivalQueue`` is the checking one.
    """
    seen = Landings()
    arrival_tick = ArrivalQueue.tick
    advance_stream = NetworkInterface._advance_stream

    def checked_tick(self, cycle):
        kernel = self.network.kernel
        # A visit lands the launch list unless it is the launch cycle.
        landing = self._launched if cycle != self._launch_cycle else ()
        for target_vc, packet, is_head, _is_tail in landing:
            if is_head:
                continue
            assert target_vc.packet is packet, (
                f"cycle {cycle}: body flit of #{packet.pid} lands in a VC "
                f"holding {target_vc.packet!r}"
            )
            assert _queued_for(kernel, target_vc.router) == cycle, (
                f"cycle {cycle}: router {target_vc.router.node} is not "
                "queued for the cycle a body flit lands in it"
            )
            seen.link += 1
        arrival_tick(self, cycle)

    def checked_advance(self, vnet):
        stream = self._streaming[vnet]
        if stream is not None and stream[2] > 0:
            packet, vc, _sent = stream
            if vc.depth - vc.flits_present > 0:  # the flit lands this call
                kernel = self.network.kernel
                assert vc.packet is packet
                assert _queued_for(kernel, vc.router) == kernel.cycle + 1, (
                    f"cycle {kernel.cycle}: router {vc.router.node} is not "
                    "queued for the cycle after an NI body flit lands"
                )
                seen.ni += 1
        advance_stream(self, vnet)

    monkeypatch.setattr(ArrivalQueue, "tick", checked_tick)
    monkeypatch.setattr(NetworkInterface, "_advance_stream", checked_advance)
    return seen


def _traffic(network, cycles=400, rate=0.12, seed=2):
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=rate, seed=seed)
    )
    traffic.run(cycles)
    assert len(traffic.delivered) == traffic.generated
    return traffic


def _disco_network(config, **disco_kwargs):
    network = Network(
        config,
        router_factory=make_disco_router_factory(DiscoConfig(**disco_kwargs)),
    )
    network.packet_priority = disco_priority
    return network


def _assert_exercised(seen):
    assert seen.link > 0 and seen.ni > 0


# -- the invariant -------------------------------------------------------------


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_golden_specs(landings, scheme):
    spec = RunSpec(
        scheme=scheme, workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    )
    runner._simulate(spec)
    _assert_exercised(landings)


@pytest.mark.parametrize(
    "flow_control, depth",
    [
        (FlowControl.VIRTUAL_CUT_THROUGH, 10),
        (FlowControl.STORE_AND_FORWARD, 12),
    ],
)
def test_whole_packet_flow_control(landings, flow_control, depth):
    _traffic(Network(NocConfig(flow_control=flow_control, vc_depth=depth)))
    _assert_exercised(landings)


def test_torus_with_escape_vcs(landings):
    _traffic(Network(NocConfig(topology="torus", vcs_per_vnet=2)))
    _assert_exercised(landings)


def test_disco_without_non_blocking_compression(landings):
    network = _disco_network(NocConfig(), non_blocking=False)
    _traffic(network)
    assert network.stats.compressions > 0
    _assert_exercised(landings)


def test_fault_campaign_with_squash_recovery(landings, monkeypatch):
    calls = {"force_release": 0, "purge_packet": 0}
    force_release = InputVC.force_release
    purge_packet = ArrivalQueue.purge_packet

    def counted_release(self):
        calls["force_release"] += 1
        return force_release(self)

    def counted_purge(self, packet):
        calls["purge_packet"] += 1
        return purge_packet(self, packet)

    monkeypatch.setattr(InputVC, "force_release", counted_release)
    monkeypatch.setattr(ArrivalQueue, "purge_packet", counted_purge)
    plan = FaultPlan(
        seed=3,
        payload_rate=0.006,
        drop_rate=0.03,
        credit_rate=0.006,
        wedge_rate=0.003,
        engine_stall_rate=0.15,
        engine_bitflip_rate=0.15,
        # Permanent wedges the invariant monitor must squash.
        scheduled=tuple(
            ScheduledFault(
                cycle=cycle, kind="wedge", node=node, duration=PERMANENT
            )
            for cycle, node in ((120, 5), (300, 10), (480, 6))
        ),
    )
    report = run_fault_campaign(
        CampaignSpec(cycles=600, retransmission=True), plan
    )
    assert report.silent == 0, report.summary()
    assert calls["force_release"] > 0 and calls["purge_packet"] > 0
    _assert_exercised(landings)


# -- the landing itself ----------------------------------------------------------


def _fields(vc):
    """Every ``InputVC`` slot, the owning router by node."""
    fields = {slot: getattr(vc, slot) for slot in InputVC.__slots__}
    fields["router"] = vc.router.node
    return fields


def _bound_pair(port, vc_index, incoming):
    """The same VC of two identical networks, each bound to its packet
    with one flit buffered and ``incoming`` more in flight."""
    pair = []
    for _ in range(2):
        network = Network(NocConfig())
        vc = network.routers[5].inputs[port][vc_index]
        packet = Packet(
            PacketType.RESPONSE, 5, 6, line=bytes(range(64)),
            compressible=True, decompress_at_dst=True,
        )
        vc.accept_flit(packet, True)
        vc.incoming = incoming
        pair.append((network, vc, packet))
    return pair


@pytest.mark.parametrize("incoming", [0, 2])
def test_link_landing_is_accept_flit(incoming):
    (_, reference, ref_packet), (network, vc, packet) = _bound_pair(
        1, 1, incoming
    )
    reference.accept_flit(ref_packet, False)
    network.arrival_queue.schedule(vc, packet, False, False)
    network.arrival_queue.tick(network.cycle + 1)
    assert _fields(vc) == {**_fields(reference), "packet": packet}


@pytest.mark.parametrize("incoming", [0, 2])
def test_ni_landing_is_accept_flit(incoming):
    (_, reference, ref_packet), (network, vc, packet) = _bound_pair(
        PORT_LOCAL, 1, incoming
    )
    reference.accept_flit(ref_packet, False)
    ni = network.nis[5]
    vnet = packet.vnet
    ni._streaming[vnet] = (packet, vc, 1)
    ni._advance_stream(vnet)
    assert _fields(vc) == {**_fields(reference), "packet": packet}
    assert ni._streaming[vnet] == (packet, vc, 2)


def test_body_flits_do_not_wake_their_router():
    network = Network(NocConfig())
    router = network.routers[5]
    woken = []
    wake = network.kernel.wake
    network.kernel.wake = lambda component, cycle=None: (
        woken.append(component), wake(component, cycle)
    )
    vc = router.inputs[1][1]
    packet = Packet(PacketType.RESPONSE, 5, 6, line=bytes(64))
    queue = network.arrival_queue
    queue.schedule(vc, packet, True, False)  # launched in cycle 0
    queue.tick(1)
    assert router in woken
    woken.clear()
    network.cycle = 1
    queue.schedule(vc, packet, False, False)
    queue.tick(2)
    assert router not in woken
    assert vc.flits_received == 2
