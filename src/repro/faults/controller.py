"""The fault controller: deterministic injection + outcome accounting.

One :class:`FaultController` binds to one :class:`~repro.noc.network.Network`
via :meth:`Network.attach_faults` and is driven entirely through the
explicit hook points the network exposes — there is no monkeypatching.
The controller is also a kernel component: ``attach_faults`` registers
it in the ``net.faults`` phase, ahead of every other fabric phase, and
its ``tick`` runs ``on_cycle`` every cycle.

===============================  =========================================
hook (caller)                     fault kinds served
===============================  =========================================
``on_cycle`` (tick, net.faults)   credit theft, VC wedges, scheduled
                                  faults, credit resync / wedge recovery
``on_send`` (Network.send)        integrity fingerprinting
``on_link_flit`` (ArrivalQueue)   payload corruption on link traversal
``drop_at_ni`` (NI.inject)        packet drops at the source NI
``engine_action`` (engine tick)   compression-engine stalls / bit-flips
``on_deliver`` (Network.deliver)  integrity verification
===============================  =========================================

All randomness comes from one private ``random.Random(plan.seed)``, so a
(plan, network, traffic) triple replays bit-identically.  A zero-fault
plan draws nothing and mutates nothing — attaching it leaves the
simulation bit-identical to running without a controller at all.

Every injected fault is recorded as a :class:`FaultEvent`; after the run
:meth:`reconcile` assigns each event an outcome:

- ``detected`` — the integrity layer flagged corruption or loss, or a
  watchdog tripped on the wedge the fault created;
- ``degraded`` — the system absorbed the fault gracefully (uncompressed
  fallback, credit resync, wedge recovery, shadow-packet stall cover, or
  a corruption that ended up masked end-to-end);
- ``silent`` — neither of the above.  A correct pipeline produces zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faults.integrity import (
    IntegrityChecker,
    IntegrityError,
)
from repro.faults.plan import PERMANENT, FaultPlan, ScheduledFault
from repro.noc.flit import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import EngineJob
    from repro.noc.network import Network
    from repro.noc.router import InputVC

#: ``wedged_until`` value used for permanent wedges (never reached).
_FOREVER = 1 << 60

OUTCOME_DETECTED = "detected"
OUTCOME_DEGRADED = "degraded"
OUTCOME_RECOVERED = "recovered"
OUTCOME_SILENT = "silent"


@dataclass
class FaultEvent:
    """One injected fault and (after :meth:`reconcile`) its outcome."""

    cycle: int
    kind: str  #: one of :data:`repro.faults.plan.FAULT_KINDS`
    node: int  #: router/NI the fault struck
    pid: int = -1  #: packet id, when the fault targeted a packet
    flavor: str = ""  #: engine: ``stall``/``bitflip``; wedge: ``permanent``
    detail: str = ""
    outcome: str = ""  #: filled in by reconcile()

    def describe(self) -> str:
        bits = [f"@{self.cycle} {self.kind}"]
        if self.flavor:
            bits.append(f"[{self.flavor}]")
        bits.append(f"node {self.node}")
        if self.pid >= 0:
            bits.append(f"packet #{self.pid}")
        if self.detail:
            bits.append(f"({self.detail})")
        if self.outcome:
            bits.append(f"-> {self.outcome}")
        return " ".join(bits)


class FaultController:
    """Injects a :class:`FaultPlan` into a bound network (see module doc)."""

    def __init__(self, plan: FaultPlan, raise_on_violation: bool = True):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.network: Optional["Network"] = None
        self.checker = IntegrityChecker(seed=plan.seed)
        #: Raise :class:`IntegrityError` at the first bad delivery (default);
        #: campaigns set this False to collect every violation instead.
        self.raise_on_violation = raise_on_violation
        self.events: List[FaultEvent] = []
        self.by_kind: Dict[str, int] = {}
        # Scheduled-fault machinery.
        self._scheduled_at: Dict[int, List[ScheduledFault]] = {}
        for fault in plan.scheduled:
            self._scheduled_at.setdefault(fault.cycle, []).append(fault)
        self._armed_engine: List[ScheduledFault] = []
        self._armed_drops: List[ScheduledFault] = []
        self._armed_payload: List[ScheduledFault] = []
        # Recovery bookkeeping.
        self._credit_restores: Dict[int, List[Tuple["InputVC", int]]] = {}
        self._wedge_releases: Dict[int, List["InputVC"]] = {}
        self._permanent_wedges: List[Tuple[FaultEvent, "InputVC"]] = []
        self._reconciled = False

    # -- wiring ---------------------------------------------------------------
    def bind(self, network: "Network") -> None:
        if self.network is not None:
            raise RuntimeError("controller is already bound to a network")
        self.network = network

    @property
    def faults_injected(self) -> int:
        return len(self.events)

    def _budget_left(self) -> bool:
        cap = self.plan.max_faults
        return cap is None or len(self.events) < cap

    def _record(self, event: FaultEvent) -> FaultEvent:
        self.events.append(event)
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        return event

    # -- per-cycle hook (net.faults phase) -----------------------------------
    def has_work(self) -> bool:
        return True  # busy every cycle while attached

    def tick(self, cycle: int) -> int:
        """The kernel visit: this cycle's faults fire before any link
        arrival lands or any router moves."""
        self.on_cycle(cycle, self.network)
        return cycle + 1

    def on_cycle(self, cycle: int, network: "Network") -> None:
        degraded = network.degraded
        restores = self._credit_restores.pop(cycle, None)
        if restores:
            for vc, amount in restores:
                vc.credit_debt = max(0, vc.credit_debt - amount)
                degraded.credit_resyncs += 1
        released = self._wedge_releases.pop(cycle, None)
        if released:
            degraded.wedge_recoveries += len(released)
        for fault in self._scheduled_at.pop(cycle, ()):
            self._fire_scheduled(cycle, fault)
        if not self.plan.in_window(cycle):
            return
        plan = self.plan
        if plan.credit_rate > 0.0:
            for router in network.routers:
                if self._budget_left() and self.rng.random() < plan.credit_rate:
                    self._inject_credit(cycle, router)
        if plan.wedge_rate > 0.0:
            for router in network.routers:
                if self._budget_left() and self.rng.random() < plan.wedge_rate:
                    self._inject_wedge(cycle, router)

    def _fire_scheduled(self, cycle: int, fault: ScheduledFault) -> None:
        network = self.network
        assert network is not None
        if fault.kind == "credit":
            router = self._pick_router(fault.node)
            self._inject_credit(cycle, router, fault.duration)
        elif fault.kind == "wedge":
            router = self._pick_router(fault.node)
            self._inject_wedge(cycle, router, fault.duration)
        elif fault.kind == "engine":
            self._armed_engine.append(fault)
        elif fault.kind == "drop":
            self._armed_drops.append(fault)
        elif fault.kind == "payload":
            self._armed_payload.append(fault)

    def _pick_router(self, node: Optional[int]):
        network = self.network
        assert network is not None
        if node is not None:
            return network.routers[node]
        return network.routers[self.rng.randrange(len(network.routers))]

    # -- credit loss ----------------------------------------------------------
    def _inject_credit(
        self, cycle: int, router, duration: Optional[int] = None
    ) -> None:
        plan = self.plan
        vc = router.all_vcs[self.rng.randrange(len(router.all_vcs))]
        amount = plan.credit_loss
        vc.credit_debt += amount
        restore_at = cycle + (duration if duration else plan.credit_duration)
        self._credit_restores.setdefault(restore_at, []).append((vc, amount))
        self._record(
            FaultEvent(
                cycle,
                "credit",
                router.node,
                detail=(
                    f"port{vc.port}/vc{vc.vc_index} -{amount} credits "
                    f"until cycle {restore_at}"
                ),
            )
        )

    # -- VC wedge -------------------------------------------------------------
    def _inject_wedge(
        self, cycle: int, router, duration: Optional[int] = None
    ) -> None:
        # Wedge a VC that actually holds an unsent packet; a wedge on an
        # idle VC would be a silent no-op and inflate the fault count.
        candidates = [
            vc
            for vc in router.all_vcs
            if vc.packet is not None
            and vc.flits_sent < vc.packet.size_flits
            and vc.wedged_until <= cycle
        ]
        if not candidates:
            return
        vc = candidates[self.rng.randrange(len(candidates))]
        permanent = duration == PERMANENT
        hold = duration if duration else self.plan.wedge_duration
        until = _FOREVER if permanent else cycle + hold
        vc.wedged_until = until
        event = self._record(
            FaultEvent(
                cycle,
                "wedge",
                router.node,
                pid=vc.packet.pid,
                flavor="permanent" if permanent else "",
                detail=(
                    f"port{vc.port}/vc{vc.vc_index} held "
                    + ("forever" if permanent else f"until cycle {until}")
                ),
            )
        )
        if permanent:
            self._permanent_wedges.append((event, vc))
        else:
            self._wedge_releases.setdefault(until, []).append(vc)

    # -- integrity fingerprinting / verification -------------------------------
    def on_send(self, cycle: int, packet: Packet) -> None:
        self.checker.record(cycle, packet)

    def on_deliver(self, cycle: int, node: int, packet: Packet) -> None:
        violation = self.checker.verify(cycle, node, packet)
        if violation is not None and self.raise_on_violation:
            raise IntegrityError(violation)

    # -- payload corruption on link traversal ----------------------------------
    def on_link_flit(
        self, cycle: int, target_vc: "InputVC", packet: Packet, is_head: bool
    ) -> None:
        if is_head or packet.line is None:
            return  # head flits carry routing state, not payload bytes
        node = target_vc.router.node
        for i, fault in enumerate(self._armed_payload):
            if fault.node is None or fault.node == node:
                del self._armed_payload[i]
                self._corrupt(cycle, node, packet)
                return
        plan = self.plan
        if plan.payload_rate <= 0.0 or not plan.in_window(cycle):
            return
        if not self._budget_left():
            return
        if self.rng.random() < plan.payload_rate:
            self._corrupt(cycle, node, packet)

    def _corrupt(self, cycle: int, node: int, packet: Packet) -> None:
        line = packet.line
        assert line is not None
        index = self.rng.randrange(len(line))
        mask = self.rng.randrange(1, 256)
        packet.line = (
            line[:index] + bytes([line[index] ^ mask]) + line[index + 1 :]
        )
        self._record(
            FaultEvent(
                cycle,
                "payload",
                node,
                pid=packet.pid,
                detail=f"byte {index} ^= {mask:#04x}",
            )
        )

    # -- NI packet drop ---------------------------------------------------------
    def drop_at_ni(self, cycle: int, node: int, packet: Packet) -> bool:
        """True when the NI must silently discard this packet."""
        for i, fault in enumerate(self._armed_drops):
            if fault.node is None or fault.node == node:
                del self._armed_drops[i]
                return self._drop(cycle, node, packet)
        plan = self.plan
        if plan.drop_rate <= 0.0 or not plan.in_window(cycle):
            return False
        if not self._budget_left():
            return False
        if self.rng.random() < plan.drop_rate:
            return self._drop(cycle, node, packet)
        return False

    def _drop(self, cycle: int, node: int, packet: Packet) -> bool:
        network = self.network
        assert network is not None
        network.degraded.packets_dropped += 1
        self._record(
            FaultEvent(cycle, "drop", node, pid=packet.pid)
        )
        return True

    # -- compression-engine faults ----------------------------------------------
    def engine_action(
        self, cycle: int, node: int, job: "EngineJob"
    ) -> Optional[str]:
        """Drawn once per engine job at its ready boundary.

        Returns ``"stall"`` (the engine sits idle for ``plan.stall_cycles``
        more cycles — absorbed by shadow-packet scheduling), ``"bitflip"``
        (the engine output is untrusted; the packet is poisoned onto the
        uncompressed fallback path), or ``None``.
        """
        for i, fault in enumerate(self._armed_engine):
            if fault.node is None or fault.node == node:
                del self._armed_engine[i]
                flavor = fault.flavor or "bitflip"
                return self._engine_fault(cycle, node, job, flavor)
        plan = self.plan
        total = plan.engine_stall_rate + plan.engine_bitflip_rate
        if total <= 0.0 or not plan.in_window(cycle):
            return None
        if not self._budget_left():
            return None
        draw = self.rng.random()
        if draw < plan.engine_stall_rate:
            return self._engine_fault(cycle, node, job, "stall")
        if draw < total:
            return self._engine_fault(cycle, node, job, "bitflip")
        return None

    def _engine_fault(
        self, cycle: int, node: int, job: "EngineJob", flavor: str
    ) -> str:
        network = self.network
        assert network is not None
        if flavor == "stall":
            network.degraded.engine_stalls_absorbed += 1
        self._record(
            FaultEvent(
                cycle,
                "engine",
                node,
                pid=job.packet.pid if job.packet is not None else -1,
                flavor=flavor,
                detail=f"{job.mode} job",
            )
        )
        return flavor

    # -- end-of-run outcome assignment -------------------------------------------
    def reconcile(
        self, final_cycle: int, watchdog_fired: bool = False
    ) -> Dict[str, int]:
        """Finalize the integrity ledger and classify every fault event.

        Idempotent.  Returns ``{"detected": n, "degraded": n,
        "recovered": n, "silent": n}``; a correct pipeline yields
        ``silent == 0``.

        With the reliability layer enabled a fault whose victim packet was
        re-delivered bit-exact through a retransmission is classified
        ``recovered`` — strictly better than detected (nothing was lost)
        and checked before the other outcomes.
        """
        if not self._reconciled:
            self._reconciled = True
            self.checker.finalize(final_cycle)
            corrupt = {
                v.pid for v in self.checker.violations if v.reason == "corrupt"
            }
            lost = {
                v.pid for v in self.checker.violations if v.reason == "lost"
            }
            flagged = corrupt | lost
            recovered = set()
            if (
                self.network is not None
                and self.network.reliability is not None
            ):
                recovered = self.network.reliability.recovered_pids
            permanent = {id(event): vc for event, vc in self._permanent_wedges}
            for event in self.events:
                if event.kind in ("payload", "engine", "drop"):
                    # Loss and corruption both surface through the checker;
                    # an engine bit-flip or a masked corruption that
                    # delivered a byte-identical line degraded gracefully.
                    if event.pid in recovered:
                        event.outcome = OUTCOME_RECOVERED
                    elif event.pid in flagged:
                        event.outcome = OUTCOME_DETECTED
                    else:
                        event.outcome = OUTCOME_DEGRADED
                elif event.kind == "credit":
                    event.outcome = OUTCOME_DEGRADED  # resync restores flow
                elif event.kind == "wedge":
                    vc = permanent.get(id(event))
                    if vc is None:
                        event.outcome = OUTCOME_DEGRADED  # timed release
                    elif event.pid in recovered:
                        # The invariant monitor squashed the wedged chain
                        # and the retransmission path re-delivered it.
                        event.outcome = OUTCOME_RECOVERED
                    elif watchdog_fired or event.pid in flagged:
                        event.outcome = OUTCOME_DETECTED
                    elif vc.packet is None and vc.flits_present == 0:
                        # The wedged packet left before the wedge landed
                        # (it released that same cycle) — harmless.
                        event.outcome = OUTCOME_DEGRADED
                    else:
                        event.outcome = OUTCOME_SILENT
                else:  # pragma: no cover - FAULT_KINDS is closed
                    event.outcome = OUTCOME_SILENT
        counts = {
            OUTCOME_DETECTED: 0,
            OUTCOME_DEGRADED: 0,
            OUTCOME_RECOVERED: 0,
            OUTCOME_SILENT: 0,
        }
        for event in self.events:
            counts[event.outcome] += 1
        return counts

    def silent_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.outcome == OUTCOME_SILENT]
