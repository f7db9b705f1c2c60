"""Fault campaigns: drive a DISCO mesh under a fault plan and audit it.

:func:`run_fault_campaign` builds the same DISCO configuration the
integration tests exercise (DISCO routers + priority scheduling + NI
residual decompression), attaches a :class:`FaultController` in
collect-violations mode, runs synthetic traffic, then reconciles every
injected fault into a detected / degraded / silent outcome.

The contract under test is **zero silent outcomes**: every fault either
surfaces through the integrity layer / a watchdog (detected) or is
absorbed by a graceful-degradation path (degraded).  A nonzero ``silent``
count is a pipeline bug, and the report carries the replay capsules to
chase it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compression.registry import get_timing
from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.faults.controller import (
    OUTCOME_DEGRADED,
    OUTCOME_DETECTED,
    OUTCOME_RECOVERED,
    OUTCOME_SILENT,
    FaultController,
    FaultEvent,
)
from repro.faults.integrity import IntegrityViolation
from repro.faults.plan import FaultPlan
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.topology import min_vcs_per_vnet
from repro.noc.traffic import SyntheticTraffic, TrafficConfig


@dataclass(frozen=True)
class CampaignSpec:
    """Workload side of a fault campaign (the fault side is the plan)."""

    width: int = 4
    height: int = 4
    cycles: int = 1500  #: injection window length
    injection_rate: float = 0.06
    pattern: str = "uniform"
    traffic_seed: int = 1
    profile_name: str = "blackscholes"
    #: Cycles the post-injection drain may take before the wedge watchdog
    #: declares the network stuck (small so permanent wedges fail fast).
    drain_limit: int = 20_000
    #: Fabric shape ("mesh", "torus", "ring", "cmesh"); the wrap-around
    #: fabrics get the escape VCs their route needs.
    topology: str = "mesh"
    #: Turn on the end-to-end recovery layer (:mod:`repro.noc.reliability`):
    #: NI retransmission plus the invariant monitor in squash-and-requeue
    #: mode, so corrupted/dropped/wedged packets are re-delivered bit-exact
    #: and reconcile as ``recovered`` instead of merely detected.
    retransmission: bool = False

    def noc_config(self) -> NocConfig:
        """The fabric configuration this campaign runs on."""
        reliability = {}
        if self.retransmission:
            reliability = dict(
                retransmission=True,
                # Check every 64 cycles with 6 stalled checks of patience:
                # a permanently wedged chain is squashed and requeued well
                # inside the drain limit, while the plan's transient wedges
                # (and ordinary congestion) release long before.
                invariant_interval=64,
                invariant_patience=6,
                invariant_recovery=True,
            )
        return NocConfig(
            width=self.width,
            height=self.height,
            topology=self.topology,
            vcs_per_vnet=min_vcs_per_vnet(self.topology),
            **reliability,
        )

    def describe(self) -> str:
        return (
            f"{self.width}x{self.height} disco {self.topology}, "
            f"{self.pattern} traffic @ {self.injection_rate}/node/cycle for "
            f"{self.cycles} cycles, traffic seed {self.traffic_seed}"
            + (", retransmission on" if self.retransmission else "")
        )


@dataclass
class CampaignReport:
    """Outcome audit of one fault campaign."""

    spec: CampaignSpec
    plan: FaultPlan
    cycles_run: int
    packets_sent: int
    packets_delivered: int
    faults_injected: int
    by_kind: Dict[str, int]
    detected: int
    degraded: int
    recovered: int
    silent: int
    silent_events: List[FaultEvent]
    violations: List[IntegrityViolation]
    degraded_stats: Dict[str, int]
    recovered_stats: Dict[str, int]
    #: Payloads that never reached their destination ("lost" violations);
    #: zero whenever retransmission is on and no retry cap was exhausted.
    lost_payloads: int
    watchdog: Optional[str] = None  #: wedge snapshot when the drain stuck
    events: List[FaultEvent] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no fault slipped through unnoticed."""
        return self.silent == 0

    def summary(self) -> str:
        lines = [
            f"fault campaign: {self.spec.describe()}",
            f"plan seed {self.plan.seed}: {self.faults_injected} faults "
            + ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
            ),
            f"traffic: {self.packets_sent} sent, "
            f"{self.packets_delivered} delivered over {self.cycles_run} cycles",
            f"outcomes: detected={self.detected} degraded={self.degraded} "
            f"recovered={self.recovered} silent={self.silent}",
            "degradation: "
            + ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.degraded_stats.items())
            ),
            f"integrity violations: {len(self.violations)} "
            f"({self.lost_payloads} lost payloads)",
        ]
        if self.spec.retransmission:
            lines.append(
                "recovery: "
                + ", ".join(
                    f"{name}={value}"
                    for name, value in sorted(self.recovered_stats.items())
                )
            )
        if self.watchdog:
            lines.append("watchdog fired:")
            lines.append(self.watchdog)
        for event in self.silent_events:
            lines.append(f"SILENT: {event.describe()}")
        return "\n".join(lines)


def build_campaign_network(spec: CampaignSpec) -> Network:
    """A DISCO fabric wired exactly like the integration tests use it:
    DISCO routers, §3.3-B priority scheduling, and NI residual
    decompression for compressed packets that reach their endpoint."""
    network = Network(
        spec.noc_config(),
        router_factory=make_disco_router_factory(DiscoConfig()),
    )
    network.packet_priority = disco_priority
    decomp = get_timing("delta").decompression_cycles

    def eject(node: int, packet) -> int:
        if packet.is_compressed and packet.decompress_at_dst:
            packet.apply_decompression()
            network.stats.ni_decompressions += 1
            return decomp
        return 0

    network.eject_transform = eject
    return network


def run_fault_campaign(
    spec: CampaignSpec, plan: FaultPlan
) -> CampaignReport:
    """Run one campaign and classify every injected fault's outcome."""
    # An open-ended plan would keep wedging the network while it drains;
    # the campaign's injection window is the traffic window.
    if plan.end_cycle is None:
        plan = dataclasses.replace(plan, end_cycle=spec.cycles)
    network = build_campaign_network(spec)
    controller = FaultController(plan, raise_on_violation=False)
    controller.checker.spec = spec.describe()
    network.attach_faults(controller)
    traffic = SyntheticTraffic(
        network,
        TrafficConfig(
            pattern=spec.pattern,
            injection_rate=spec.injection_rate,
            seed=spec.traffic_seed,
            profile_name=spec.profile_name,
        ),
    )
    watchdog: Optional[str] = None
    traffic.run(spec.cycles, drain=False)
    try:
        network.run_until_quiescent(max_cycles=spec.drain_limit)
    except RuntimeError as exc:
        # The drain watchdog tripped — a permanently wedged VC (or a true
        # deadlock).  The wedge snapshot rides along in the report.
        watchdog = str(exc)
    counts = controller.reconcile(network.cycle, watchdog_fired=watchdog is not None)
    return CampaignReport(
        spec=spec,
        plan=plan,
        cycles_run=network.cycle,
        packets_sent=traffic.generated,
        packets_delivered=len(traffic.delivered),
        faults_injected=controller.faults_injected,
        by_kind=dict(controller.by_kind),
        detected=counts[OUTCOME_DETECTED],
        degraded=counts[OUTCOME_DEGRADED],
        recovered=counts[OUTCOME_RECOVERED],
        silent=counts[OUTCOME_SILENT],
        silent_events=controller.silent_events(),
        violations=list(controller.checker.violations),
        degraded_stats=network.degraded.counters(),
        recovered_stats=network.recovered.counters(),
        lost_payloads=sum(
            1 for v in controller.checker.violations if v.reason == "lost"
        ),
        watchdog=watchdog,
        events=list(controller.events),
    )


def run_campaign_payload(payload: Dict) -> Dict:
    """Service-job entry point: one JSON payload in, one JSON summary out.

    The campaign service (:mod:`repro.service`) schedules fault campaigns
    through the same process pool as simulation specs, so the unit of
    work must be a picklable module-level callable over plain data.  The
    payload carries two optional sub-dicts, ``spec`` (CampaignSpec
    fields) and ``plan`` (FaultPlan fields); unknown fields raise
    ``TypeError`` from the dataclass constructors, surfacing to the
    submitting client as a failed unit rather than a mis-parsed campaign.
    """
    spec_fields = dict(payload.get("spec") or {})
    plan_fields = dict(payload.get("plan") or {})
    spec = CampaignSpec(**spec_fields)
    plan = FaultPlan(**plan_fields)
    report = run_fault_campaign(spec, plan)
    return {
        "kind": "fault_campaign",
        "describe": spec.describe(),
        "plan_seed": report.plan.seed,
        "clean": report.clean,
        "cycles_run": report.cycles_run,
        "packets_sent": report.packets_sent,
        "packets_delivered": report.packets_delivered,
        "faults_injected": report.faults_injected,
        "by_kind": dict(report.by_kind),
        "detected": report.detected,
        "degraded": report.degraded,
        "recovered": report.recovered,
        "silent": report.silent,
        "lost_payloads": report.lost_payloads,
        "watchdog_fired": report.watchdog is not None,
    }
