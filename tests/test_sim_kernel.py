"""The simulation kernel: phases, component gating, stats, diagnostics."""

import pickle

import pytest

from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.sim import (
    CallbackComponent,
    Component,
    CounterSnapshot,
    SimKernel,
    StatsRegistry,
    merge_snapshots,
)
from tests.tick_all import TickAllKernel


class Recorder:
    """A component that logs the ticks it works in into a shared trace.

    Busy, it logs and asks for the next cycle; idle, its tick changes
    nothing and it sleeps (the kernel's return-value contract).
    """

    def __init__(self, name, trace, busy=True):
        self.name = name
        self.trace = trace
        self.busy = busy

    def has_work(self):
        return self.busy

    def tick(self, cycle):
        if not self.busy:
            return None
        self.trace.append((cycle, self.name))
        return cycle + 1


class TestKernelScheduling:
    def test_phase_order_is_registration_order(self):
        kernel = SimKernel()
        trace = []
        kernel.register(Recorder("b", trace), phase="beta")
        kernel.register(Recorder("a", trace), phase="alpha")
        kernel.step()
        assert trace == [(1, "b"), (1, "a")]
        assert kernel.phases() == ("beta", "alpha")

    def test_add_phase_before_reorders(self):
        kernel = SimKernel()
        trace = []
        kernel.register(Recorder("late", trace), phase="late")
        kernel.add_phase("early", before="late")
        kernel.register(Recorder("early", trace), phase="early")
        kernel.step()
        assert trace == [(1, "early"), (1, "late")]

    def test_add_phase_before_unknown_raises(self):
        with pytest.raises(KeyError):
            SimKernel().add_phase("x", before="nope")

    def test_shared_phase_by_name(self):
        kernel = SimKernel()
        phase = kernel.add_phase("shared")
        assert kernel.add_phase("shared") is phase
        trace = []
        kernel.register(Recorder("one", trace), phase="shared")
        kernel.register(Recorder("two", trace), phase="shared")
        assert len(kernel.components("shared")) == 2

    def test_returned_wake_gates_revisits(self):
        kernel = SimKernel()
        trace = []
        idle = Recorder("idle", trace, busy=False)
        busy = Recorder("busy", trace, busy=True)
        kernel.register(idle)
        kernel.register(busy)
        kernel.step()
        kernel.step()
        assert trace == [(1, "busy"), (2, "busy")]
        # Both were visited at cycle 1; only the one that asked for the
        # next cycle was visited again.
        assert kernel.component_wakes == 3
        # Becoming busy without a wake does not bring the sleeper back...
        idle.busy = True
        kernel.step()
        assert trace[-1] == (3, "busy")
        # ...a wake does.
        kernel.wake(idle)
        kernel.step()
        assert trace[-2:] == [(4, "idle"), (4, "busy")]

    def test_step_never_asks_has_work(self):
        class NoPredicate(Recorder):
            def has_work(self):
                raise AssertionError("the sweep asked has_work()")

        kernel = SimKernel()
        trace = []
        kernel.register(NoPredicate("busy", trace, busy=True))
        kernel.register(NoPredicate("idle", trace, busy=False))
        for _ in range(3):
            kernel.step()
        assert trace == [(1, "busy"), (2, "busy"), (3, "busy")]

    def test_passive_components_never_tick_but_count_as_busy(self):
        kernel = SimKernel()
        trace = []
        passive = Recorder("passive", trace, busy=True)
        kernel.register(passive, phase="banks", passive=True)
        kernel.step()
        assert trace == []  # never ticked...
        assert not kernel.idle()  # ...but holds the kernel non-idle
        assert ("banks", passive) in kernel.busy_components()
        passive.busy = False
        assert kernel.idle()

    def test_run_until_predicate(self):
        kernel = SimKernel()
        stepped = kernel.run(until=lambda: kernel.cycle >= 10)
        assert stepped == 10
        assert kernel.cycle == 10

    def test_run_max_cycles_raises(self):
        kernel = SimKernel()
        with pytest.raises(RuntimeError, match="exceeded 5 cycles"):
            kernel.run(until=lambda: False, max_cycles=5)

    def test_callback_component(self):
        ticks = []
        comp = CallbackComponent(ticks.append, label="cb")
        assert isinstance(comp, Component)
        assert comp.has_work()
        assert comp.tick(7) == 8  # runs every cycle
        assert ticks == [7]
        gated = CallbackComponent(
            ticks.append, label="gated", has_work_fn=lambda: False
        )
        assert not gated.has_work()
        assert gated.tick(9) is None  # idle after the run: sleeps
        assert ticks == [7, 9]

    def test_describe_mentions_phases(self):
        kernel = SimKernel()
        kernel.register(Recorder("r", [], busy=True), phase="net.routers")
        kernel.register(
            Recorder("p", [], busy=False), phase="banks", passive=True
        )
        text = kernel.describe()
        assert "net.routers" in text
        assert "passive" in text


class TestInstrumentation:
    def test_timing_accumulates_per_phase(self):
        kernel = SimKernel()
        kernel.register(Recorder("a", [], busy=True), phase="work")
        kernel.register(Recorder("b", [], busy=False), phase="work")
        kernel.enable_timing()
        for _ in range(3):
            kernel.step()
        # a ticks every cycle; idle b once, the priming visit, then sleeps.
        assert kernel.phase_ticks == {"work": 4}
        assert kernel.phase_seconds["work"] >= 0.0


class TestStatsRegistry:
    def test_snapshot_samples_providers(self):
        registry = StatsRegistry()
        counters = {"hits": 1}
        registry.register("l1", lambda: dict(counters))
        snap1 = registry.snapshot()
        counters["hits"] = 5
        snap2 = registry.snapshot()
        assert snap1["l1"]["hits"] == 1  # immutable sample
        assert snap2["l1"]["hits"] == 5
        assert registry.groups() == ("l1",)
        assert "l1" in registry

    def test_duplicate_group_raises(self):
        registry = StatsRegistry()
        registry.register("g", dict)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("g", dict)

    def test_flat_and_collision(self):
        snap = CounterSnapshot({"a": {"x": 1}, "b": {"y": 2}})
        assert snap.flat() == {"x": 1, "y": 2}
        clash = CounterSnapshot({"a": {"x": 1}, "b": {"x": 2}})
        with pytest.raises(ValueError, match="collides"):
            clash.flat()

    def test_get_counter_searches_groups(self):
        snap = CounterSnapshot({"a": {"x": 1}, "b": {"y": 2}})
        assert snap.get_counter("y") == 2
        assert snap.get_counter("missing", default=-1) == -1

    def test_delta_is_steady_state_window(self):
        base = CounterSnapshot({"net": {"flits": 10, "cycles": 100}})
        final = CounterSnapshot({"net": {"flits": 25, "cycles": 300}, "l1": {"hits": 4}})
        window = final.delta(base)
        assert window["net"] == {"flits": 15, "cycles": 200}
        assert window["l1"] == {"hits": 4}  # missing base group counts as 0

    def test_merge_sums_counterwise(self):
        a = CounterSnapshot({"net": {"flits": 1}})
        b = CounterSnapshot({"net": {"flits": 2}, "l1": {"hits": 3}})
        merged = a.merge(b)
        assert merged["net"] == {"flits": 3}
        assert merged["l1"] == {"hits": 3}
        assert merge_snapshots([a, b, a]).flat() == {"flits": 4, "hits": 3}
        assert merge_snapshots([]) == CounterSnapshot()

    def test_snapshot_pickles(self):
        snap = CounterSnapshot({"net": {"flits": 7}})
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.flat() == {"flits": 7}


class SleepyRecorder(Recorder):
    """A Recorder that sleeps after every visit.

    Its tick returns ``None`` even while busy, so the *only* thing that
    can keep this component running is an explicit :meth:`SimKernel.wake`.
    """

    def tick(self, cycle):
        super().tick(cycle)
        return None


class TestWakeupEdgeCases:
    """Corner cases of the event-driven scheduler (wake normalisation,
    dedup, phase ordering, timed wakeups)."""

    def test_self_wake_during_tick_revisits_next_cycle(self):
        kernel = SimKernel()
        trace = []

        class SelfWaker(SleepyRecorder):
            def tick(self, cycle):
                super().tick(cycle)
                if len(trace) < 3:
                    kernel.wake(self)

        kernel.register(SelfWaker("self", trace))
        for _ in range(6):
            kernel.step()
        # Exactly one visit per cycle while self-waking, then sleep.
        assert trace == [(1, "self"), (2, "self"), (3, "self")]
        counters = kernel.kernel_counters()
        assert counters["component_wakes"] == 3

    def test_busy_self_wake_does_not_double_tick(self):
        kernel = SimKernel()
        trace = []

        class Noisy(Recorder):
            def tick(self, cycle):
                at = super().tick(cycle)
                # Redundant with the returned next cycle, and with each
                # other: all three must coalesce to one visit.
                kernel.wake(self)
                kernel.wake(self, cycle + 1)
                return at

        kernel.register(Noisy("noisy", trace, busy=True))
        for _ in range(4):
            kernel.step()
        assert trace == [(1, "noisy"), (2, "noisy"), (3, "noisy"), (4, "noisy")]

    def test_wake_in_the_past_rounds_up_to_next_cycle(self):
        kernel = SimKernel()
        trace = []
        comp = SleepyRecorder("one-shot", trace)
        kernel.register(comp)
        for _ in range(5):
            kernel.step()
        assert trace == [(1, "one-shot")]  # primed once, then slept
        kernel.wake(comp, cycle=2)  # cycle 2 is long gone
        kernel.step()
        assert trace == [(1, "one-shot"), (6, "one-shot")]

    def test_simultaneous_cross_phase_wakes_preserve_phase_order(self):
        kernel = SimKernel()
        trace = []
        beta = SleepyRecorder("b", trace)
        alpha = SleepyRecorder("a", trace)
        kernel.register(beta, phase="beta")
        kernel.register(alpha, phase="alpha")
        kernel.step()  # prime visits at cycle 1
        trace.clear()
        # Wake in reverse phase order for the same future cycle ...
        kernel.wake(alpha, cycle=4)
        kernel.wake(beta, cycle=4)
        for _ in range(3):
            kernel.step()
        # ... the sweep still runs them in phase (registration) order.
        assert trace == [(4, "b"), (4, "a")]

    def test_simultaneous_wakes_within_a_phase_follow_registration_order(self):
        kernel = SimKernel()
        trace = []
        first = SleepyRecorder("first", trace)
        second = SleepyRecorder("second", trace)
        kernel.register(first, phase="p")
        kernel.register(second, phase="p")
        kernel.step()
        trace.clear()
        kernel.wake(second, cycle=3)
        kernel.wake(first, cycle=3)
        kernel.step()
        kernel.step()
        assert trace == [(3, "first"), (3, "second")]

    def test_producer_wake_lands_same_cycle_only_downstream(self):
        kernel = SimKernel()
        up_trace, mid_trace, down_trace = [], [], []
        upstream = Recorder("up", up_trace, busy=False)
        downstream = Recorder("down", down_trace, busy=False)

        class Producer(SleepyRecorder):
            def tick(self, cycle):
                if self.busy:
                    super().tick(cycle)
                    self.busy = False
                    upstream.busy = True
                    downstream.busy = True
                    kernel.wake(upstream)
                    kernel.wake(downstream)
                return None

        producer = Producer("prod", mid_trace, busy=False)
        kernel.register(upstream, phase="pre")
        kernel.register(producer, phase="mid")
        kernel.register(downstream, phase="post")
        kernel.step()  # the priming visits: nothing is busy yet
        producer.busy = True
        kernel.wake(producer)
        kernel.step()
        kernel.step()
        assert mid_trace == [(2, "prod")]
        # The not-yet-swept phase is reached the same cycle; the
        # already-swept one must wait for the next cycle.
        assert down_trace[0] == (2, "down")
        assert up_trace[0] == (3, "up")

    def test_returned_deadline_sleeps_between_visits(self):
        kernel = SimKernel()
        trace = []

        class Timer(Recorder):
            def tick(self, cycle):
                super().tick(cycle)
                return cycle + 5

        kernel.register(Timer("timer", trace, busy=True))
        for _ in range(12):
            kernel.step()
        assert trace == [(1, "timer"), (6, "timer"), (11, "timer")]
        counters = kernel.kernel_counters()
        assert counters["cycles_total"] == 12
        assert counters["component_wakes"] == 3  # no visits in between

    def test_superseded_heap_entry_never_causes_a_visit(self):
        kernel = SimKernel()
        trace = []
        comp = Recorder("sleeper", trace, busy=False)
        kernel.register(comp)
        kernel.wake(comp, cycle=10)
        kernel.wake(comp, cycle=3)  # supersedes the cycle-10 entry
        for _ in range(12):
            kernel.step()
        assert trace == []  # never busy, so no visit did any work
        counters = kernel.kernel_counters()
        # Prime visit at cycle 1 + the coalesced wake at cycle 3; the
        # stale cycle-10 heap entry is dropped in the drain, not visited.
        assert counters["component_wakes"] == 2

    def test_wake_unregistered_or_passive_raises(self):
        kernel = SimKernel()
        with pytest.raises(KeyError, match="unregistered"):
            kernel.wake(Recorder("ghost", []))
        passive = Recorder("passive", [])
        kernel.register(passive, passive=True)
        with pytest.raises(ValueError, match="passive"):
            kernel.wake(passive)


class TestEventTickInvariance:
    """The wakeup scheduler must be observationally identical to the
    poll-everything reference (:mod:`tests.tick_all`): same deliveries,
    same cycle counts, same counters (minus the ``kernel`` idle-efficiency
    group, which measures the scheduler itself)."""

    @staticmethod
    def _drain(kernel_cls):
        kernel = kernel_cls()
        network = Network(NocConfig(width=4, height=4), kernel=kernel)
        delivered = []
        network.set_delivery_handler(
            lambda node, p: delivered.append((node, p.src, p.dst))
        )
        for i in range(12):
            network.send(Packet(PacketType.REQUEST, i % 16, (i * 5 + 3) % 16))
        network.run_until_quiescent(max_cycles=10_000)
        snapshot = dict(network.kernel.stats.snapshot())
        snapshot.pop("kernel", None)
        return delivered, snapshot, network.cycle

    def test_network_drain_is_mode_invariant(self):
        event = self._drain(SimKernel)
        tick = self._drain(TickAllKernel)
        assert event == tick

    @staticmethod
    def _recovered_drop(kernel_cls):
        """A retransmission deadline (timed wakeup) firing mid-drain."""
        from repro.faults import FaultController, FaultPlan, ScheduledFault

        kernel = kernel_cls()
        network = Network(
            NocConfig(width=4, height=4, retransmission=True, retx_timeout=64),
            kernel=kernel,
        )
        delivered = []
        network.set_delivery_handler(lambda node, p: delivered.append(p))
        network.attach_faults(
            FaultController(
                FaultPlan(
                    seed=1, scheduled=(ScheduledFault(cycle=1, kind="drop"),)
                ),
                raise_on_violation=False,
            )
        )
        for _ in range(3):
            network.tick()  # arm the scheduled drop
        line = bytes(range(64))
        network.send(
            Packet(
                PacketType.RESPONSE, 0, 15, line=line,
                compressible=True, decompress_at_dst=True,
            )
        )
        network.run_until_quiescent(max_cycles=50_000)
        return delivered, network

    def test_retx_deadline_fires_identically_in_both_modes(self):
        event_delivered, event_net = self._recovered_drop(SimKernel)
        tick_delivered, tick_net = self._recovered_drop(TickAllKernel)
        # The drop really forced the retransmission timer to fire ...
        assert event_net.recovered.retransmissions >= 1
        # ... and both schedulers recovered identically.
        assert len(event_delivered) == len(tick_delivered) == 1
        assert event_delivered[0].line == tick_delivered[0].line
        assert (
            event_net.recovered.retransmissions
            == tick_net.recovered.retransmissions
        )
        assert event_net.cycle == tick_net.cycle


class TestNetworkOnKernel:
    def test_network_registers_phases_in_order(self):
        network = Network(NocConfig(width=2, height=2))
        assert network.kernel.phases() == (
            "net.frame",
            "net.arrivals",
            "net.routers",
            "net.nis",
            "net.delivery",
        )
        assert "network" in network.kernel.stats

    def test_network_counters_via_registry(self):
        network = Network(NocConfig(width=2, height=2))
        network.set_delivery_handler(lambda node, p: None)
        network.send(Packet(PacketType.REQUEST, 0, 3))
        network.run_until_quiescent()
        flat = network.kernel.stats.snapshot().flat()
        assert flat["packets_injected"] == 1
        assert flat["flits_ejected"] >= 1
        assert flat["cycles"] == network.cycle

    def test_wedge_snapshot_attached_to_drain_failure(self):
        network = Network(NocConfig(width=2, height=2))
        # A head flit whose tail never arrives: the router binds the packet
        # and waits forever, so the drain loop must wedge and explain where.
        packet = Packet(PacketType.RESPONSE, 0, 3, line=b"\x00" * 64)
        packet.injected_cycle = 0
        vc = network.routers[3].all_vcs[0]
        network.arrival_queue.schedule(
            network.cycle + 1, vc, packet, is_head=True, is_tail=False
        )
        with pytest.raises(RuntimeError) as excinfo:
            network.run_until_quiescent(max_cycles=200)
        message = str(excinfo.value)
        assert "wedge snapshot" in message
        assert "router 3" in message
        assert "RESPONSE" in message
        assert "0->3" in message

    def test_wedge_snapshot_reports_inflight_link_flits(self):
        network = Network(NocConfig(width=2, height=2))
        packet = Packet(PacketType.REQUEST, 0, 3)
        vc = network.routers[3].all_vcs[0]
        # Scheduled far in the future: stays "in flight" past the deadline.
        network.arrival_queue.schedule(
            network.cycle + 10_000, vc, packet, is_head=True, is_tail=True
        )
        with pytest.raises(RuntimeError, match="link flits in flight: 1"):
            network.run_until_quiescent(max_cycles=100)
