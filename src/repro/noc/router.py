"""The 3-stage virtual-channel router (paper §3.1, Fig. 2).

Pipeline: buffer-write + route computation (RC) -> VC allocation (VA) +
switch allocation (SA) -> switch traversal (ST) + link traversal.  The
stages are emulated by processing SA first, then VA, then RC within each
cycle, so a packet advances exactly one stage per cycle.

Flow control is credit-based: a sender inspects the downstream VC's free
slots (``depth - buffered - in flight``).  Wormhole allocates a downstream
VC to a packet from head to tail; virtual cut-through and store-and-forward
additionally require the whole packet to fit (and, for SAF, to have fully
arrived) before it advances — the property §3.3-A relies on for whole-packet
compression.

State layout: an :class:`InputVC` keeps its mutable fields as plain
``__slots__`` attributes, and each router iterates a short list of its
packet-holding VCs per stage.  (A struct-of-arrays "fabric plane" with
VCs as property views over shared arrays was tried and removed: it made
the per-cycle pipeline about a fifth slower in CPython.)

Every router, DISCO or not, runs the same inlined switch allocator; it
also applies the DISCO engine lock (a VC whose packet the engine holds
may not send).  Arbitration is one pass over the candidates: the highest
``packet_priority`` wins, and among equals the VC whose ``rr_key``
(``port * stride + vc_index``, precomputed per VC when the router is
built) comes first at or after the output port's round-robin pointer.
A lone requester is granted without arbitrating.

:class:`Router` exposes the hook points the DISCO router
overrides: ``_post_switch_allocation`` (this cycle's SA losers — the
compression candidates of §3.2 step-1), ``_post_vc_allocation`` (the VCs
that found no downstream VC, called after RC, which resolves the output
ports the arbitrator's contention count reads) and
``_on_first_flit_sent`` (shadow-packet abort, step-3).
"""

from __future__ import annotations

import copyreg
from bisect import insort
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.noc.config import FlowControl, NocConfig
from repro.noc.flit import Packet
from repro.noc.topology import PORT_LOCAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

# InputVC states.
VC_IDLE = 0
VC_ROUTING = 1
VC_VA = 2
VC_ACTIVE = 3

#: Cycles a flit spends on an inter-router link.
LINK_LATENCY = 1

_by_scan_key = attrgetter("scan_key")

#: Resolved lazily (import cycle): the stock ``Network.can_eject``, so the
#: SA hot path can tell "unmodified ejection policy" (inlinable token
#: check) from a subclass override or a test/fault monkey-patch.
_BASE_CAN_EJECT = None


def _base_can_eject():
    global _BASE_CAN_EJECT
    if _BASE_CAN_EJECT is None:
        from repro.noc.network import Network

        _BASE_CAN_EJECT = Network.can_eject
    return _BASE_CAN_EJECT


class InputVC:
    """One virtual-channel buffer of one input port.

    Holds at most one packet at a time (wormhole VC allocation: the VC is
    bound to a packet from head to tail).  Buffering is tracked as flit
    counts; ``incoming`` counts flits already launched on the link toward
    this VC, so ``free_slots`` is the sender-visible credit count.
    """

    __slots__ = (
        "router",
        "port",
        "vc_index",
        "scan_key",
        "rr_key",
        "depth",
        "packet",
        "state",
        "flits_present",
        "flits_received",
        "flits_sent",
        "incoming",
        "reserved",
        "out_port",
        "out_vc_class",
        "out_vc",
        "engine_job",
        "credit_debt",
        "wedged_until",
    )

    def __init__(self, router: "Router", port: int, vc_index: int, depth: int):
        self.router = router
        self.port = port
        self.vc_index = vc_index
        #: Position in the router's ``all_vcs`` scan order — keeps the
        #: bound-VC active list sorted identically to a full scan.
        self.scan_key = 0
        #: Round-robin key of the switch allocator (``port * stride +
        #: vc_index``, set by the router once its stride is known).
        self.rr_key = 0
        self.depth = depth
        self.packet: Optional[Packet] = None
        self.state = VC_IDLE
        self.flits_present = 0
        self.flits_received = 0
        self.flits_sent = 0
        self.incoming = 0
        self.reserved = False
        self.out_port = -1
        #: Dateline escape-VC class picked at route computation (None when
        #: the routing algorithm is deadlock-free on any VC).
        self.out_vc_class: Optional[int] = None
        self.out_vc: Optional["InputVC"] = None
        self.engine_job = None  # set by the DISCO engine
        #: Credits destroyed by an injected fault (repro.faults): the
        #: sender-visible credit count shrinks until the resync restores
        #: them, squeezing throughput without corrupting occupancy.
        self.credit_debt = 0
        #: Fault-injected wedge: the VC refuses to send while the network
        #: cycle is below this bound (-1 = never wedged).
        self.wedged_until = -1

    # -- credit view --------------------------------------------------------
    def free_slots(self) -> int:
        """Sender-visible credits (never negative; decompression overflow
        is absorbed by the engine's staging registers)."""
        slots = (
            self.depth - self.flits_present - self.incoming - self.credit_debt
        )
        return slots if slots > 0 else 0

    def occupancy(self) -> int:
        """Buffered + in-flight flits (the congestion signal DISCO reads)."""
        return self.flits_present + self.incoming

    def is_free(self) -> bool:
        return self.packet is None and not self.reserved and self.incoming == 0

    # -- lifecycle ----------------------------------------------------------
    def accept_flit(self, packet: Packet, is_head: bool) -> None:
        """Deliver one flit into the buffer (buffer-write stage).

        ``ArrivalQueue.tick`` and ``NetworkInterface._advance_stream``
        inline the body-flit case; a test keeps the copies equal."""
        if self.incoming > 0:
            self.incoming -= 1
        if is_head:
            if self.packet is not None:
                raise RuntimeError(
                    f"VC collision at router {self.router.node} "
                    f"port {self.port} vc {self.vc_index}"
                )
            self.packet = packet
            self.router._bind_vc(self)
            self.reserved = False
            self.state = VC_ROUTING
            self.flits_received = 0
            self.flits_sent = 0
        self.flits_present += 1
        self.flits_received += 1

    def force_release(self) -> int:
        """Squash-evict whatever packet state this VC holds.

        Recovery path of :mod:`repro.noc.reliability`: the invariant
        monitor empties every VC along a stalled packet's wormhole chain
        and requeues a pristine copy through the retransmission path.
        Returns the buffered flit count removed (the caller accounts for
        it in ``recovered.flits_squashed``).  Clears a fault-injected
        wedge so the repaired VC is immediately usable, and releases a
        downstream reservation whose head flit will now never arrive.
        The caller must purge in-flight arrivals targeting this VC (and
        decrement ``incoming``) *before* calling.
        """
        removed = self.flits_present
        target = self.out_vc
        if target is not None and target.packet is None and target.reserved:
            target.reserved = False
        self.release()
        self.reserved = False
        self.wedged_until = -1
        return removed

    def release(self) -> None:
        """Free the VC after the tail flit has left."""
        if self.packet is not None:
            self.router._unbind_vc(self)
        self.packet = None
        self.state = VC_IDLE
        self.flits_present = 0
        self.flits_received = 0
        self.flits_sent = 0
        self.out_port = -1
        self.out_vc_class = None
        self.out_vc = None
        self.engine_job = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VC r{self.router.node} p{self.port} v{self.vc_index} "
            f"state={self.state} buf={self.flits_present}>"
        )


class Router:
    """A single fabric router; see module docstring for the pipeline model.

    The port layout is driven by the topology's per-node radix (5 on the
    Table 2 mesh, 3 on a ring, 2 on a cmesh leaf, ...); port 0 is always
    the local injection/ejection port.
    """

    def __init__(self, node: int, config: NocConfig, network: "Network"):
        self.node = node
        self.config = config
        self.network = network
        self.topology = network.topology
        self.radix = self.topology.radix(node)
        self.inputs: List[List[InputVC]] = [
            [
                InputVC(self, port, vc, config.vc_depth)
                for vc in range(config.vcs_per_port)
            ]
            for port in range(self.radix)
        ]
        #: Flattened VC list (diagnostics, faults, the invariant monitor).
        self.all_vcs: List[InputVC] = [
            vc for port_vcs in self.inputs for vc in port_vcs
        ]
        # Round-robin key space: (port, vc) -> port * stride + vc.  The
        # floors of 8 keep the Table 2 mesh arithmetic (stride 8, span 64)
        # bit-identical to the fixed-radix implementation.
        stride = max(8, config.vcs_per_port)
        self._rr_span = stride * max(8, self.radix)
        for index, vc in enumerate(self.all_vcs):
            vc.scan_key = index
            vc.rr_key = vc.port * stride + vc.vc_index
        #: Bound-VC active list: every VC currently holding a packet, kept
        #: sorted by ``scan_key``.  The per-cycle pipeline stages iterate
        #: this short list instead of scanning all ``radix × vcs_per_port``
        #: buffers — iteration order (and thus arbitration) is identical
        #: to a full scan because the sort key *is* the scan position.
        self._bound: List[InputVC] = []
        self._sa_rr: List[int] = [0] * self.radix  # round-robin per output port
        # Hot-path precomputation.  The flags let the per-cycle pipeline
        # skip hook dispatch entirely on the plain router (subclasses that
        # override a hook are detected once here, not per flit).
        self._saf = config.flow_control is FlowControl.STORE_AND_FORWARD
        self._whole_packet = config.flow_control in (
            FlowControl.VIRTUAL_CUT_THROUGH,
            FlowControl.STORE_AND_FORWARD,
        )
        #: Whether every engine job holds its VC, not only a committed
        #: streaming one: set by a DISCO router without non-blocking
        #: compression (the shadow-invalid bit of §3.2).
        self._jobs_block = False
        self._sa_hook = (
            type(self)._post_switch_allocation
            is not Router._post_switch_allocation
        )
        self._va_hook = (
            type(self)._post_vc_allocation
            is not Router._post_vc_allocation
        )
        self._ff_hook = (
            type(self)._on_first_flit_sent is not Router._on_first_flit_sent
        )
        #: (out_port, vnet, vc_class) -> downstream candidate VCs in scan
        #: order; the topology is static so the lists never change.
        self._va_candidates: Dict[tuple, List[InputVC]] = {}

    def __reduce_ex__(self, protocol):
        # A bare instance: routers reach each other through their VCs, so
        # pickling one's state where it is first met would recurse across
        # the fabric.  The owning ``Network`` pickles every router's state
        # from one flat list (``Network.__getstate__``).
        return copyreg.__newobj__, (type(self),)

    # -- bound-VC bookkeeping -------------------------------------------------
    def _bind_vc(self, vc: InputVC) -> None:
        insort(self._bound, vc, key=_by_scan_key)

    def _unbind_vc(self, vc: InputVC) -> None:
        self._bound.remove(vc)

    # -- queries used by DISCO and flow control ------------------------------
    def input_port_occupancy(self, port: int) -> int:
        """Total flits buffered/in-flight on one input port."""
        return sum(vc.occupancy() for vc in self.inputs[port])

    def downstream_occupancy(self, out_port: int) -> int:
        """Occupancy of the input port this output port feeds (credit_in)."""
        if out_port == PORT_LOCAL:
            return 0
        neighbor = self.topology.neighbor[self.node].get(out_port)
        if neighbor is None:
            return 0
        return self.network.routers[neighbor].input_port_occupancy(
            self.topology.neighbor_port(self.node, out_port)
        )

    def local_contention(self, out_port: int, exclude: InputVC) -> int:
        """Flits buffered locally that also head for ``out_port``
        (credit_out / competitor pressure in Eq. (1)/(2)).

        Scans every buffer rather than the bound-VC list: it is off the
        per-flit hot path and diagnostics poke VC state directly.
        """
        total = 0
        for vc in self.all_vcs:
            if vc is exclude:
                continue
            if vc.out_port == out_port:
                total += vc.flits_present
        return total

    def has_work(self) -> bool:
        """Idle predicate: a bound VC, or a VC reserved or with flits in
        flight toward it (what ``Network.quiescent`` must wait for)."""
        if self._bound:
            return True
        for vc in self.all_vcs:
            if vc.incoming or vc.reserved:
                return True
        return False

    # -- per-cycle pipeline --------------------------------------------------
    def tick(self, cycle: int) -> Optional[int]:
        """One cycle: SA/ST first, then VA, then RC (stage separation).

        A single pass over the bound VCs snapshots each stage's work list,
        then the stages run in pipeline order — identical to three separate
        scans because a VC is in exactly one state at scan time and stage
        processing never moves a VC into an *earlier* stage's set within
        the same cycle.

        Asks for the next cycle while a VC is bound and sleeps otherwise:
        a router holding only reserved VCs or flits in flight has nothing
        to move until a head flit lands, and the landing wakes it.
        """
        sa = va = rc = None
        for vc in self._bound:
            state = vc.state
            if state == VC_ACTIVE:
                if vc.flits_present:
                    if sa is None:
                        sa = [vc]
                    else:
                        sa.append(vc)
            elif state == VC_VA:
                if va is None:
                    va = [vc]
                else:
                    va.append(vc)
            elif state == VC_ROUTING:
                if rc is None:
                    rc = [vc]
                else:
                    rc.append(vc)
        if sa is not None:
            self._switch_allocation(sa)
        waiting = None
        if va is not None:
            waiting = self._vc_allocation(va)
        if rc is not None:
            self._route_computation(rc)
        if waiting is not None and self._va_hook:
            self._post_vc_allocation(waiting)
        return cycle + 1 if self._bound else None

    # .. stage 3+2b: switch allocation and traversal ..........................
    def _switch_allocation(self, active: List[InputVC]) -> None:
        """Partition the requesters, arbitrate, send the winners.

        The per-VC send test is :meth:`_can_send` inlined; a test checks
        that the partition's verdict equals :meth:`_can_send` for every
        VC."""
        network = self.network
        now = network.kernel.cycle
        saf = self._saf
        jobs_block = self._jobs_block
        # The ejection verdict is resolved at the first local-port
        # requester.  The eject-token pool only changes when a flit is
        # actually sent, after the partition, so the stock policy's verdict
        # holds for every local VC; a replaced ``can_eject`` (subclass or
        # test/fault monkey-patch) is consulted per VC.
        eject_ok: Optional[bool] = None
        eject_call = None
        single: Optional[List[InputVC]] = None  # all requesters, one port
        requests: Optional[Dict[int, List[InputVC]]] = None
        blocked: Optional[List[InputVC]] = None
        for vc in active:
            out_port = vc.out_port
            job = vc.engine_job
            if job is not None and (jobs_block or job.committed):
                ok = False  # the DISCO engine holds the packet
            elif vc.wedged_until > now:
                ok = False  # fault-injected wedge (repro.faults)
            elif saf and vc.flits_received < vc.packet.size_flits:
                ok = False
            elif out_port == PORT_LOCAL:
                if eject_ok is not None:
                    ok = eject_ok
                elif eject_call is not None:
                    ok = eject_call(self.node)
                else:
                    eject_fn = network.can_eject
                    if getattr(eject_fn, "__func__", None) is _base_can_eject():
                        ok = eject_ok = network._eject_tokens[self.node] > 0
                    else:
                        eject_call = eject_fn
                        ok = eject_fn(self.node)
            else:
                t = vc.out_vc
                ok = (
                    t.depth - t.flits_present - t.incoming - t.credit_debt
                ) > 0
            if not ok:
                if blocked is None:
                    blocked = [vc]
                else:
                    blocked.append(vc)
            elif requests is not None:
                group = requests.get(out_port)
                if group is None:
                    requests[out_port] = [vc]
                else:
                    group.append(vc)
            elif single is None:
                single = [vc]
            elif single[0].out_port == out_port:
                single.append(vc)
            else:
                requests = {single[0].out_port: single, out_port: [vc]}
                single = None

        losers: Optional[List[InputVC]] = None
        if single is not None:
            # One output port requested (80,731 of the 139,124 SA calls of
            # canneal/baseline at 800 accesses per core, 58%; 37% request
            # several ports, 5% none): no cross-port input conflicts are
            # possible, so the used-input filtering reduces to a single
            # arbitration.
            if len(single) == 1:
                winner = single[0]
                self._sa_rr[winner.out_port] = (
                    winner.rr_key + 1
                ) % self._rr_span
            else:
                winner = self._arbitrate(single[0].out_port, single, 0)
                single.remove(winner)
                losers = single
            self._send_flit(winner)
        elif requests is not None:
            # Output ports in ascending order; an input port sends at most
            # one flit per cycle (``used`` is a bitmask of input ports).
            used = 0
            winners: List[InputVC] = []
            losers = []
            for out_port in sorted(requests):
                group = requests[out_port]
                if len(group) == 1:
                    winner = group[0]
                    if used >> winner.port & 1:
                        losers.append(winner)
                        continue
                    self._sa_rr[out_port] = (winner.rr_key + 1) % self._rr_span
                else:
                    winner = self._arbitrate(out_port, group, used)
                    if winner is None:
                        losers += group
                        continue
                    group.remove(winner)
                    losers += group
                used |= 1 << winner.port
                winners.append(winner)
            for vc in winners:
                self._send_flit(vc)
            if not losers:
                losers = None

        if losers is not None:
            network.stats.sa_losses += len(losers)
        if self._sa_hook:
            if blocked is not None:
                losers = blocked if losers is None else losers + blocked
            if losers is not None:
                self._post_switch_allocation(losers)

    def _can_send(self, vc: InputVC) -> bool:
        """Whether ``vc`` may send a flit this cycle (SA's request test)."""
        packet = vc.packet
        assert packet is not None
        job = vc.engine_job
        if job is not None and (self._jobs_block or job.committed):
            # A streaming job whose flits entered the compressor is
            # committed; without non-blocking support every job locks
            # its shadow until completion.
            return False
        if vc.wedged_until > self.network.cycle:
            return False  # fault-injected wedge (repro.faults)
        if self.config.flow_control is FlowControl.STORE_AND_FORWARD:
            if vc.flits_received < packet.size_flits:
                return False
        if vc.out_port == PORT_LOCAL:
            return self.network.can_eject(self.node)
        target = vc.out_vc
        assert target is not None
        return target.free_slots() > 0

    def _arbitrate(
        self, out_port: int, candidates: List[InputVC], used: int
    ) -> Optional[InputVC]:
        """Highest ``packet_priority`` wins; among equals, the VC nearest at
        or after the port's round-robin pointer.

        Candidates whose input port is set in the ``used`` bitmask already
        sent this cycle and are skipped; returns None when none is left.
        One pass finds the winner: no two VCs of a router share an
        ``rr_key``, so no two share a distance from the pointer.
        """
        priority_of = self.network.packet_priority
        pointer = self._sa_rr[out_port]
        span = self._rr_span
        winner = None
        best = nearest = 0
        for vc in candidates:
            if used >> vc.port & 1:
                continue
            priority = priority_of(vc.packet)
            distance = (vc.rr_key - pointer) % span
            if (
                winner is None
                or priority > best
                or (priority == best and distance < nearest)
            ):
                winner = vc
                best = priority
                nearest = distance
        if winner is not None:
            self._sa_rr[out_port] = (winner.rr_key + 1) % span
        return winner

    def _send_flit(self, vc: InputVC) -> None:
        packet = vc.packet
        network = self.network
        stats = network.stats
        sent = vc.flits_sent
        if sent == 0 and self._ff_hook:
            self._on_first_flit_sent(vc)
        sent += 1
        vc.flits_sent = sent
        vc.flits_present -= 1
        # One grant is one buffer read and one crossbar traversal
        # (``NetworkStats.buffer_reads``/``crossbar_flits`` read it).
        stats.sa_grants += 1
        is_head = sent == 1
        is_tail = sent == packet.size_flits
        tracer = network.tracer
        if tracer is not None:
            cycle = network.kernel.cycle
            if is_head:
                tracer.on_switch_granted(cycle, packet, self.node, vc.out_port)
            if is_tail:
                tracer.on_tail_sent(cycle, packet, self.node, vc.out_port)
        if vc.out_port == PORT_LOCAL:
            network.eject_flit(self.node, packet, is_tail)
        else:
            target = vc.out_vc
            target.incoming += 1
            stats.link_flits += 1
            network.arrival_queue.schedule(
                network.kernel.cycle + LINK_LATENCY,
                target,
                packet,
                is_head,
                is_tail,
            )
        if is_tail:
            if vc.flits_present != 0:
                raise RuntimeError(
                    f"tail sent with {vc.flits_present} flits still buffered"
                )
            vc.release()

    # .. stage 2a: VC allocation ..............................................
    def _vc_allocation(self, vcs: List[InputVC]) -> Optional[List[InputVC]]:
        """Grant downstream VCs; returns the VCs still waiting (or None)."""
        network = self.network
        tracer = network.tracer
        stats = network.stats
        waiting: Optional[List[InputVC]] = None
        for vc in vcs:
            packet = vc.packet
            if vc.out_port == PORT_LOCAL:
                vc.state = VC_ACTIVE
                stats.va_grants += 1
                if tracer is not None:
                    tracer.on_vc_allocated(
                        network.kernel.cycle, packet, self.node, vc.out_port
                    )
                continue
            target = self._allocate_downstream_vc(vc, packet)
            if target is None:
                if waiting is None:
                    waiting = [vc]
                else:
                    waiting.append(vc)
                continue
            target.reserved = True
            vc.out_vc = target
            vc.state = VC_ACTIVE
            stats.va_grants += 1
            if tracer is not None:
                tracer.on_vc_allocated(
                    network.kernel.cycle, packet, self.node, vc.out_port
                )
        return waiting

    def _allocate_downstream_vc(
        self, vc: InputVC, packet: Packet
    ) -> Optional[InputVC]:
        whole_packet = self._whole_packet
        if whole_packet and packet.size_flits > self.config.vc_depth:
            raise RuntimeError(
                f"{self.config.flow_control.value} needs vc_depth >= packet "
                f"size ({packet.size_flits} flits > {self.config.vc_depth})"
            )
        key = (vc.out_port, packet.vnet, vc.out_vc_class)
        candidates = self._va_candidates.get(key)
        if candidates is None:
            candidates = self._build_va_candidates(*key)
            self._va_candidates[key] = candidates
        size = packet.size_flits
        for candidate in candidates:
            if (
                candidate.packet is None
                and not candidate.reserved
                and candidate.incoming == 0
            ):
                if whole_packet and candidate.free_slots() < size:
                    continue
                return candidate
        return None

    def _build_va_candidates(
        self, out_port: int, vnet: int, vc_class: Optional[int]
    ) -> List[InputVC]:
        """Downstream VCs eligible for (out_port, vnet, class), scan order.

        The topology never changes mid-run, so the filtered list is built
        once per key and reused every VC allocation.
        """
        neighbor = self.topology.neighbor[self.node].get(out_port)
        assert neighbor is not None, "deterministic routing never exits the fabric"
        in_port = self.topology.neighbor_port(self.node, out_port)
        if vc_class is None:
            allowed = self.config.vnet_vcs(vnet)
        else:
            # Dateline routing: restrict allocation to the escape class
            # chosen at route computation.
            allowed = self.config.escape_class_vcs(vnet, vc_class)
        router = self.network.routers[neighbor]
        return [
            candidate
            for candidate in router.inputs[in_port]
            if candidate.vc_index in allowed
        ]

    # .. stage 1: route computation ...........................................
    def _route_computation(self, vcs: List[InputVC]) -> None:
        network = self.network
        tracer = network.tracer
        route = network.route
        node = self.node
        for vc in vcs:
            packet = vc.packet
            vc.out_port, vc.out_vc_class = route(node, packet.dst)
            vc.state = VC_VA
            if tracer is not None:
                tracer.on_route_computed(
                    network.kernel.cycle, packet, node, vc.out_port
                )

    # -- DISCO hook points ----------------------------------------------------
    def _post_switch_allocation(self, losers: List[InputVC]) -> None:
        """Called each cycle with the VCs that wanted but failed to send.

        The baseline router ignores them; the DISCO router feeds them to
        the arbitrator as compression candidates (§3.2 step-1).
        """

    def _post_vc_allocation(self, waiting: List[InputVC]) -> None:
        """Called each cycle, after route computation, with the VCs that
        found no free downstream VC.

        The baseline router ignores them; the DISCO router feeds them to
        the arbitrator too (step-1 counts VA and SA losers alike).  It
        runs after RC because the arbitrator's local contention reads the
        output ports RC resolved this cycle.
        """

    def _on_first_flit_sent(self, vc: InputVC) -> None:
        """Called when a packet starts leaving this router.

        The DISCO router uses this to abort an in-flight (de)compression of
        the shadow packet (§3.2 step-3, non-blocking compression).
        """
