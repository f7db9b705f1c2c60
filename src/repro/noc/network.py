"""The fabric network: routers + NIs, assembled on the simulation kernel.

The fabric shape comes from ``NocConfig.topology`` (mesh by default); the
network builds the topology object once, and that object's ``route`` is
the fabric's one routing.

The network no longer hand-walks its routers each cycle — it registers
components on a :class:`repro.sim.SimKernel` in five ordered phases:

- ``net.frame`` — start-of-cycle housekeeping (ejection-token refill);
- ``net.arrivals`` — link arrivals land in their target VCs;
- ``net.routers`` — the 3-stage router pipelines;
- ``net.nis`` — injection streaming and pending ejection deliveries;
- ``net.delivery`` — same-tile (local) deliveries.

The kernel owns the global clock; a :class:`CmpSystem` passes its own
kernel in so cores, banks and the memory controller tick on the same clock
in phases appended after these.  ``Network.tick()`` remains as a
convenience that steps the whole kernel by one cycle.

The network's own state is plain Python: per-node ejection tokens are a
list that ``net.frame`` refills only where tokens were spent, and route
decisions are memoized (every pair precomputed on fabrics up to 64
nodes, a bounded FIFO cache beyond).  Routers hold their VC state
themselves (:mod:`repro.noc.router`).

Three pluggable hooks are configured by the CMP scheme layer:

- ``inject_transform(node, packet) -> extra cycles`` — NI-side work at
  injection (CNC's NI compressor);
- ``eject_transform(node, packet) -> extra cycles`` — NI-side work at
  ejection (CNC's NI decompressor; DISCO's residual decompression);
- ``packet_priority(packet) -> int`` — the §3.3-B scheduling policy.

A ``router_factory`` lets the DISCO scheme replace the baseline router with
:class:`repro.core.disco_router.DiscoRouter` without the network knowing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.interface import NetworkInterface
from repro.noc.router import InputVC, Router
from repro.noc.reliability import InvariantMonitor, ReliabilityLayer
from repro.noc.stats import NetworkStats
from repro.sim import CallbackComponent, SimKernel
from repro.sim.stats import DegradedStats, RecoveredStats, TelemetryStats
from repro.telemetry.sampler import TimeSeriesSampler
from repro.telemetry.tracer import PacketTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.controller import FaultController

RouterFactory = Callable[[int, NocConfig, "Network"], Router]
DeliveryHandler = Callable[[int, Packet], None]


def _default_inject(node: int, packet: Packet) -> int:
    return 0


def _default_eject(node: int, packet: Packet) -> int:
    return 0


def _default_priority(packet: Packet) -> int:
    return 1


class ArrivalQueue:
    """Link arrivals scheduled for future cycles (a kernel component).

    Every link has the same latency, so batches are created in due order
    and ``_due``'s first key is always the earliest: the queue sleeps
    until it, and ``schedule`` wakes it for a new batch.  When a batch
    lands, the routers its head flits land in are woken in the same
    cycle (``net.routers`` sweeps after ``net.arrivals``).  A body flit
    lands in a VC its packet already holds; a router with a bound VC
    asks for the next cycle after every visit, so the kernel has already
    queued it for this cycle.
    """

    __slots__ = ("network", "_due")

    def __init__(self, network: "Network"):
        self.network = network
        self._due: Dict[int, List[Tuple[InputVC, Packet, bool, bool]]] = {}

    def schedule(
        self,
        due: int,
        target_vc: InputVC,
        packet: Packet,
        is_head: bool,
        is_tail: bool,
    ) -> None:
        """Launch a flit that lands at ``due``.  Batches must be created
        in due order (every link has the same latency), so that ``_due``'s
        first key is its earliest."""
        batch = self._due.get(due)
        if batch is None:
            batch = self._due[due] = []
            self.network.kernel.wake(self, due)
        batch.append((target_vc, packet, is_head, is_tail))

    def has_work(self) -> bool:
        return bool(self._due)

    def pending(self) -> int:
        """Total flits still in flight on links."""
        return sum(len(batch) for batch in self._due.values())

    def in_flight_counts(self) -> Dict[InputVC, int]:
        """In-flight flit count per target VC (the invariant monitor
        checks these against each VC's ``incoming`` credit view)."""
        counts: Dict[InputVC, int] = {}
        for batch in self._due.values():
            for target_vc, _packet, _head, _tail in batch:
                counts[target_vc] = counts.get(target_vc, 0) + 1
        return counts

    def purge_packet(self, packet: Packet) -> int:
        """Remove every in-flight flit of ``packet`` (squash support).

        Decrements the target VCs' ``incoming`` credits so flow control
        stays conserved; returns the flit count removed.
        """
        removed = 0
        for due_cycle in list(self._due):
            batch = self._due[due_cycle]
            kept = []
            for item in batch:
                target_vc, arriving, _is_head, _is_tail = item
                if arriving is packet:
                    if target_vc.incoming > 0:
                        target_vc.incoming -= 1
                    removed += 1
                else:
                    kept.append(item)
            if len(kept) != len(batch):
                if kept:
                    self._due[due_cycle] = kept
                else:
                    del self._due[due_cycle]
        return removed

    def tick(self, cycle: int) -> Optional[int]:
        due = self._due
        arrivals = due.pop(cycle, None)
        if arrivals is None:
            return next(iter(due), None)
        network = self.network
        network.stats.buffer_writes += len(arrivals)
        faults = network.faults
        tracer = network.tracer
        for target_vc, packet, is_head, is_tail in arrivals:
            if is_head:
                target_vc.accept_flit(packet, True)
                network.kernel.wake(target_vc.router)
                packet.hops_traversed += 1
                if tracer is not None:
                    # Lifecycle hook: head flit landed in a router VC.
                    tracer.on_hop(
                        cycle,
                        packet,
                        target_vc.router.node,
                        target_vc.port,
                        target_vc.vc_index,
                    )
            else:
                # ``accept_flit`` for a body flit.  Its packet holds the
                # VC, so the router asked for this cycle when its last
                # visit found the VC bound: no wake needed.
                if target_vc.incoming > 0:
                    target_vc.incoming -= 1
                target_vc.flits_present += 1
                target_vc.flits_received += 1
            if faults is not None:
                # Link-traversal fault hook: payload corruption strikes a
                # flit as it lands in the downstream buffer.
                faults.on_link_flit(cycle, target_vc, packet, is_head)
        return next(iter(due), None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrivalQueue({self.pending()} flits in flight)"


class LocalDeliveryQueue:
    """Same-tile deliveries waiting out their NI transform latency.

    Sleeps until the earliest ``ready`` cycle; ``schedule`` wakes it for
    the new deadline.
    """

    __slots__ = ("network", "_pending")

    def __init__(self, network: "Network"):
        self.network = network
        self._pending: List[Tuple[int, Packet]] = []

    def schedule(self, ready: int, packet: Packet) -> None:
        self._pending.append((ready, packet))
        self.network.kernel.wake(self, ready)

    def has_work(self) -> bool:
        return bool(self._pending)

    def pending(self) -> int:
        return len(self._pending)

    def tick(self, cycle: int) -> Optional[int]:
        remaining = []
        network = self.network
        for ready, packet in self._pending:
            if ready <= cycle:
                packet.ejected_cycle = cycle
                network.stats.record_ejection(cycle - packet.injected_cycle)
                if network.tracer is not None:
                    network.tracer.on_eject(cycle, packet, packet.dst)
                network.deliver(packet.dst, packet)
            else:
                remaining.append((ready, packet))
        self._pending = remaining
        if not remaining:
            return None
        return min(ready for ready, _packet in remaining)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalDeliveryQueue({len(self._pending)} pending)"


class Network:
    """A cycle-level NoC instance over a pluggable topology."""

    def __init__(
        self,
        config: NocConfig,
        router_factory: Optional[RouterFactory] = None,
        kernel: Optional[SimKernel] = None,
    ):
        self.config = config
        self.topology = config.make_topology()
        # Route memo: decisions are pure functions of (topology, node,
        # dst), filled on first use.  It holds at most n·(n−1) entries
        # (65,280 on 16×16, the largest fabric the experiments build), so
        # it needs no bound.  It is pure derived state: a checkpoint
        # carries it as it stands, and every entry is what a recompute
        # would return.
        self._route_cache: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
        self.stats = NetworkStats()
        self.kernel = kernel if kernel is not None else SimKernel()
        factory = router_factory or Router
        self.routers: List[Router] = [
            factory(node, config, self) for node in range(self.topology.n_nodes)
        ]
        self.nis: List[NetworkInterface] = [
            NetworkInterface(node, self) for node in range(self.topology.n_nodes)
        ]
        self.arrival_queue = ArrivalQueue(self)
        self.local_deliveries = LocalDeliveryQueue(self)
        # Ejection tokens start full; the frame step only refills nodes
        # that actually spent tokens (``_eject_spent``) instead of
        # rewriting the whole array every cycle.
        bandwidth = config.ejection_bandwidth
        self._eject_tokens: List[int] = [bandwidth] * self.topology.n_nodes
        self._eject_spent: List[int] = []
        #: The start-of-cycle step: it runs in a cycle that follows spent
        #: ejection tokens (``eject_flit`` wakes it), and every cycle
        #: while a fault controller is attached.
        self._frame = CallbackComponent(
            self._frame_start, label="net.frame", has_work_fn=self._frame_due
        )
        self._delivery_handler: Optional[DeliveryHandler] = None
        #: Fault-injection controller (:mod:`repro.faults`); ``None`` keeps
        #: every hook a cheap attribute test with zero behavioural impact.
        self.faults: Optional["FaultController"] = None
        #: Graceful-degradation counters — always registered as the
        #: ``degraded`` stat group so snapshots are layout-stable whether
        #: or not a fault plan is attached.
        self.degraded = DegradedStats()
        #: Recovered-fault counters (:mod:`repro.noc.reliability`).  The
        #: object always exists (cheap hook sites), but the ``recovered``
        #: stat group is only registered when the reliability layer or the
        #: invariant monitor is enabled — the golden default-mesh snapshot
        #: layout is unchanged otherwise.
        self.recovered = RecoveredStats()
        #: NI retransmission protocol (``config.retransmission``).
        self.reliability: Optional[ReliabilityLayer] = None
        #: Runtime invariant monitor (``config.invariant_interval > 0``).
        self.monitor: Optional[InvariantMonitor] = None
        #: Observability counters (:mod:`repro.telemetry`).  The object
        #: always exists, but the ``telemetry`` stat group is only
        #: registered when a telemetry knob is on — snapshot layout (and
        #: the golden digests) are unchanged otherwise.
        self.telemetry = TelemetryStats()
        #: Per-packet lifecycle tracer (``config.trace_packets``); ``None``
        #: keeps every hook a cheap attribute test, mirroring ``faults``.
        self.tracer: Optional[PacketTracer] = None
        #: Time-series stats sampler (``config.stats_interval > 0``).
        self.sampler: Optional[TimeSeriesSampler] = None
        # Scheme hooks (see module docstring).
        self.inject_transform: Callable[[int, Packet], int] = _default_inject
        self.eject_transform: Callable[[int, Packet], int] = _default_eject
        self.packet_priority: Callable[[Packet], int] = _default_priority
        self._register_components()

    def _register_components(self) -> None:
        kernel = self.kernel
        kernel.register(self._frame, phase="net.frame")
        kernel.register(self.arrival_queue, phase="net.arrivals")
        for router in self.routers:
            kernel.register(router, phase="net.routers")
        for ni in self.nis:
            kernel.register(ni, phase="net.nis")
        kernel.register(self.local_deliveries, phase="net.delivery")
        config = self.config
        if config.retransmission:
            self.reliability = ReliabilityLayer(self)
            kernel.register(self.reliability, phase="net.reliability")
        if config.invariant_interval > 0:
            self.monitor = InvariantMonitor(
                self,
                interval=config.invariant_interval,
                patience=config.invariant_patience,
                recover=config.invariant_recovery,
            )
            kernel.register(self.monitor, phase="net.monitor")
        kernel.stats.register("network", self._network_counters)
        kernel.stats.register("degraded", self.degraded.counters)
        if self.reliability is not None or self.monitor is not None:
            kernel.stats.register("recovered", self.recovered.counters)
        if config.telemetry_enabled:
            kernel.stats.register("telemetry", self.telemetry.counters)
            # Idle-efficiency counters (cycles_total / component_wakes).
            # Gated with telemetry so the default snapshot layout — and
            # the golden digests — are unchanged.
            kernel.stats.register("kernel", kernel.kernel_counters)
        if config.trace_packets:
            self.tracer = PacketTracer(
                sample_interval=config.trace_sample_interval,
                stats=self.telemetry,
            )
            kernel.annotations["telemetry.tracer"] = (
                f"1/{config.trace_sample_interval} packets, "
                f"cap {self.tracer.event_cap} events"
            )
        if config.stats_interval > 0:
            self.sampler = TimeSeriesSampler(
                kernel,
                interval=config.stats_interval,
                stats=self.telemetry,
            )
            self.sampler.add_gauge("fabric_occupancy", self._fabric_occupancy)
            kernel.register(self.sampler, phase="telemetry.sample")
            kernel.annotations["telemetry.sampler"] = (
                f"every {config.stats_interval} cycles, "
                f"ring of {self.sampler.capacity} windows"
            )

    def _frame_due(self) -> bool:
        return bool(self._eject_spent) or self.faults is not None

    def _frame_start(self, cycle: int) -> None:
        spent = self._eject_spent
        if spent:
            bandwidth = self.config.ejection_bandwidth
            tokens = self._eject_tokens
            for node in spent:
                tokens[node] = bandwidth
            self._eject_spent = []
        if self.faults is not None:
            # Per-cycle fault hook: scheduled faults fire, random
            # credit/wedge faults are sampled, stolen credits resync.
            self.faults.on_cycle(cycle, self)

    def _fabric_occupancy(self) -> float:
        """Buffered + in-flight flits across every router VC (the default
        occupancy gauge of the telemetry sampler)."""
        return float(
            sum(vc.occupancy() for r in self.routers for vc in r.all_vcs)
        )

    def _network_counters(self) -> Dict[str, int]:
        """The NoC's contribution to the kernel's stats registry (legacy
        flat counter names, consumed by the energy model)."""
        stats = self.stats
        return {
            "cycles": self.kernel.cycle,
            "link_flits": stats.link_flits,
            "buffer_writes": stats.buffer_writes,
            "buffer_reads": stats.buffer_reads,
            "crossbar_flits": stats.crossbar_flits,
            "sa_grants": stats.sa_grants,
            "va_grants": stats.va_grants,
            "router_compressions": stats.compressions,
            "router_decompressions": stats.decompressions,
            "ni_compressions": stats.ni_compressions,
            "ni_decompressions": stats.ni_decompressions,
            "flits_injected": stats.flits_injected,
            "flits_ejected": stats.flits_ejected,
            "packets_injected": stats.packets_injected,
        }

    # -- clock ----------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.kernel.cycle

    @cycle.setter
    def cycle(self, value: int) -> None:
        # The CMP fast-forward jumps the shared clock over provably idle
        # cycles; everything reading the clock goes through the kernel.
        self.kernel.cycle = value

    # -- wiring ---------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        """Register the endpoint callback for fully-delivered packets."""
        self._delivery_handler = handler

    def attach_faults(self, controller: "FaultController") -> None:
        """Wire a fault-injection controller into the explicit hook points
        (injection, link arrivals, ejection, per-cycle sampling).  A
        zero-fault plan is guaranteed inert: the hooks only observe."""
        if self.faults is not None:
            raise RuntimeError("a fault controller is already attached")
        controller.bind(self)
        self.faults = controller
        self.kernel.wake(self._frame)

    # -- packet movement -------------------------------------------------------
    def route(self, node: int, dst: int):
        """Route decision ``(out_port, vc_class)`` at ``node`` toward ``dst``
        under the topology's route.

        A route is a deterministic pure function of ``(node, dst)`` (the
        :meth:`Topology.route` contract), so decisions are memoized per
        pair.
        """
        key = (node, dst)
        decision = self._route_cache.get(key)
        if decision is None:
            decision = self._route_cache[key] = self.topology.route(node, dst)
        return decision

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source node's NI."""
        if not 0 <= packet.src < self.topology.n_nodes:
            raise ValueError(f"bad source node {packet.src}")
        if not 0 <= packet.dst < self.topology.n_nodes:
            raise ValueError(f"bad destination node {packet.dst}")
        if self.reliability is not None:
            # Stamp seq + CRC and record the replay copy first, so the
            # integrity fingerprint below sees the protocol-complete packet.
            self.reliability.on_send(self.cycle, packet)
        if self.faults is not None:
            # Integrity hook: fingerprint the payload before the packet can
            # be touched by the network (or by an injected fault).
            self.faults.on_send(self.cycle, packet)
        if packet.src == packet.dst:
            # Local traffic never enters the mesh.  Both NI transforms still
            # apply (e.g. CNC compresses at injection and decompresses at
            # ejection even for same-tile transfers).
            packet.injected_cycle = self.cycle
            self.stats.packets_injected += 1
            if self.tracer is not None:
                self.tracer.on_inject(self.cycle, packet, packet.src)
            delay = 1 + self.inject_transform(packet.src, packet)
            delay += self.eject_transform(packet.dst, packet)
            self.local_deliveries.schedule(self.cycle + delay, packet)
            return
        self.nis[packet.src].inject(packet)

    def can_eject(self, node: int) -> bool:
        return self._eject_tokens[node] > 0

    def eject_flit(self, node: int, packet: Packet, is_tail: bool) -> None:
        self._eject_tokens[node] -= 1
        spent = self._eject_spent
        if not spent:
            self.kernel.wake(self._frame)  # refill at the next cycle's start
        spent.append(node)
        self.stats.flits_ejected += 1
        if is_tail:
            self.nis[node].complete_ejection(packet)

    def deliver(self, node: int, packet: Packet) -> None:
        if self.reliability is not None and not self.reliability.on_deliver(
            self.cycle, node, packet
        ):
            # The reliability endpoint consumed it: an ack/NACK, a
            # suppressed duplicate, or a CRC-rejected delivery awaiting a
            # bit-exact retransmission.  Neither the integrity check nor
            # the endpoint handler ever sees a bad or repeated payload.
            return
        if self.faults is not None:
            # Integrity hook: verify the payload survived compress →
            # traverse → decompress byte-identically before the endpoint
            # consumes it.
            self.faults.on_deliver(self.cycle, node, packet)
        if self._delivery_handler is not None:
            self._delivery_handler(node, packet)

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Routers reach each other through their VCs, so a router pickled
        # where it is first met recurses across the whole fabric (deeper
        # than the default recursion limit on a 16x16 mesh).  Each router
        # pickles as a bare instance (``Router.__reduce_ex__``) and its
        # state travels here, in one flat list.
        state = self.__dict__.copy()
        state["_router_states"] = [router.__dict__ for router in self.routers]
        return state

    def __setstate__(self, state: dict) -> None:
        # Fills in the bare routers from the flat list ``__getstate__``
        # wrote; nothing else needs rebuilding.
        router_states = state.pop("_router_states")
        self.__dict__.update(state)
        for router, router_state in zip(self.routers, router_states):
            router.__dict__.update(router_state)

    # -- the cycle loop ----------------------------------------------------------
    def tick(self) -> None:
        """Advance the simulation by one cycle (steps the whole kernel)."""
        self.kernel.step()

    def quiescent(self) -> bool:
        """True when nothing is buffered, queued or in flight."""
        if self.arrival_queue.has_work() or self.local_deliveries.has_work():
            return False
        if any(router.has_work() for router in self.routers):
            return False
        if self.reliability is not None and self.reliability.has_work():
            # Unacked replay entries still have deadlines pending: the
            # drain must keep ticking so a dropped packet retransmits
            # instead of stranding the run in a false quiescent state.
            return False
        return not any(ni.has_work() for ni in self.nis)

    def run_until_quiescent(self, max_cycles: int = 1_000_000) -> int:
        """Tick until idle; returns the cycle count.  For tests/examples."""
        start = self.cycle
        while not self.quiescent():
            self.tick()
            if self.cycle - start > max_cycles:
                raise RuntimeError(
                    "network failed to drain (deadlock?)\n"
                    + self.wedge_snapshot()
                )
        return self.cycle - start

    # -- wedge diagnostics ------------------------------------------------------
    def wedge_snapshot(self) -> str:
        """Where every buffered flit / queued packet is stuck right now.

        Attached to drain/watchdog failures so a deadlock can be triaged
        from the exception alone: per-router VC occupancy with the packets
        held, link flits still in flight, NI injection backlogs, and
        pending local deliveries.
        """
        lines = [f"--- wedge snapshot @ cycle {self.cycle} ---"]
        in_flight = self.arrival_queue.pending()
        lines.append(
            f"link flits in flight: {in_flight}; "
            f"local deliveries pending: {self.local_deliveries.pending()}"
        )
        for router in self.routers:
            busy = [
                vc
                for vc in router.all_vcs
                if vc.packet is not None or vc.flits_present or vc.incoming
            ]
            if not busy:
                continue
            buffered = sum(vc.flits_present for vc in busy)
            incoming = sum(vc.incoming for vc in busy)
            held = ", ".join(
                f"{self.topology.port_name(vc.port)}/vc{vc.vc_index}:"
                f"{vc.packet.ptype.name}"
                f"({vc.packet.src}->{vc.packet.dst},"
                f" {vc.flits_sent}/{vc.packet.size_flits} sent,"
                f" state={vc.state}"
                + (
                    f", wedged_until={vc.wedged_until}"
                    if vc.wedged_until > self.cycle
                    else ""
                )
                + (
                    f", credit_debt={vc.credit_debt}"
                    if vc.credit_debt
                    else ""
                )
                + ")"
                for vc in busy
                if vc.packet is not None
            )
            lines.append(
                f"router {router.node}: {buffered} flits buffered, "
                f"{incoming} incoming; {held or 'no packet bound'}"
            )
        for ni in self.nis:
            if ni.has_work():
                lines.append(f"NI {ni.node}: {ni.describe_backlog()}")
        if len(lines) == 2:
            lines.append("(no component holds state - clean quiescence)")
        return "\n".join(lines)
