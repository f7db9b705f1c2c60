"""Spurious visits change nothing.

The kernel calls ``tick`` on every visit; nothing gates the call.  A
stale timed wake (a deadline met early by another path) or a wake
coalesced with work already done therefore ticks a component with
nothing to do, and that tick must change nothing and return the right
next wake (``None`` for an idle component: it has nothing to wait for).

These tests wake components the run does not need at several mid-run
cycles and require the final results to equal an undisturbed run's.
They cover every component kind a run registers: routers (plain and
DISCO), NIs, the arrival and local-delivery queues, the frame step, the
CMP event queue and tiles in the quick disco and baseline specs; the
retransmission layer, the invariant monitor and the fault-driven frame
step in a fault campaign; the telemetry sampler in a sampled run.
"""

import copy

import pytest

from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.faults import (
    PERMANENT,
    CampaignSpec,
    FaultPlan,
    ScheduledFault,
    run_fault_campaign,
)
from repro.sim.kernel import SimKernel

#: Disturb after every 23rd cycle (a prime, so the disturbances fall on
#: every phase of the sampler's and the monitor's intervals).
EVERY = 23

#: Which components get the extra visits: only the idle ones
#: (``has_work()`` False), or every registered one — then a component
#: sleeping on a deadline is visited before it.
WHO = ("idle", "all")

QUICK_SPECS = {
    "disco": RunSpec(
        scheme="disco", workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    ),
    "baseline": RunSpec(
        scheme="baseline", workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    ),
    "sampler": RunSpec(
        scheme="disco", workload="canneal", width=2, height=2,
        accesses_per_core=200, stats_interval=50,
    ),
}


class Disturbance:
    """Which components get extra visits, and the kinds that got one."""

    def __init__(self, who):
        self.who = who
        self.kinds = set()


@pytest.fixture
def disturb(monkeypatch, request):
    """Make every kernel wake the chosen components after every
    ``EVERY``-th step; the next step visits them in phase order.

    Idle components are also ticked directly at the cycle just swept (a
    second visit in one cycle), which must return ``None``.
    """
    seen = Disturbance(request.param)
    step = SimKernel.step

    def disturbed_step(kernel):
        cycle = step(kernel)
        if cycle % EVERY == 0:
            for component in kernel.components():
                idle = not component.has_work()
                if idle:
                    assert component.tick(cycle) is None, (
                        f"idle {component!r} asked for a wake at {cycle}"
                    )
                if idle or seen.who == "all":
                    kernel.wake(component)
                    seen.kinds.add(type(component).__name__)
        return cycle

    monkeypatch.setattr(SimKernel, "step", disturbed_step)
    return seen


def _without_kernel_group(counters):
    """Counter groups minus ``kernel``, which counts the visits
    themselves (registered when telemetry is on)."""
    return {group: counters[group] for group in counters if group != "kernel"}


def _observable(result):
    telemetry = copy.deepcopy(result.telemetry)
    for window in (telemetry or {}).get("windows", ()):
        window["counters"] = _without_kernel_group(window["counters"])
    return (
        _without_kernel_group(result.snapshot_full),
        _without_kernel_group(result.snapshot_measured),
        result.cycles,
        result.avg_miss_latency,
        telemetry,
    )


CMP_KINDS = {
    "NetworkInterface", "ArrivalQueue", "LocalDeliveryQueue",
    "CallbackComponent", "EventQueue", "Tile",
}


@pytest.mark.parametrize("disturb", WHO, indirect=True)
@pytest.mark.parametrize("name", sorted(QUICK_SPECS))
def test_cmp_runs_are_unchanged(name, disturb, monkeypatch):
    spec = QUICK_SPECS[name]
    disturbed = runner.build_system(spec).run()
    monkeypatch.undo()
    expected = runner.build_system(spec).run()
    assert _observable(disturbed) == _observable(expected)
    kinds = CMP_KINDS | {"Router" if name == "baseline" else "DiscoRouter"}
    if name == "sampler" and disturb.who == "all":
        kinds.add("TimeSeriesSampler")  # never idle
    assert disturb.kinds == kinds


def _campaign():
    """A fault campaign with retransmission and the invariant monitor in
    squash-and-requeue mode; returns the report and the kernel's final
    counters (every stat group, ``kernel`` aside)."""
    kernels = []
    init = SimKernel.__init__

    def recording_init(kernel):
        init(kernel)
        kernels.append(kernel)

    SimKernel.__init__ = recording_init
    try:
        plan = FaultPlan(
            seed=3,
            payload_rate=0.006,
            drop_rate=0.03,
            credit_rate=0.006,
            wedge_rate=0.003,
            engine_stall_rate=0.15,
            engine_bitflip_rate=0.15,
            scheduled=tuple(
                ScheduledFault(
                    cycle=cycle, kind="wedge", node=node, duration=PERMANENT
                )
                for cycle, node in ((120, 5), (300, 10))
            ),
        )
        report = run_fault_campaign(
            CampaignSpec(cycles=500, retransmission=True), plan
        )
    finally:
        SimKernel.__init__ = init
    (kernel,) = kernels
    counters = dict(kernel.stats.snapshot())
    counters.pop("kernel", None)
    return report, counters


def _outcome(report):
    return (
        report.cycles_run,
        report.packets_sent,
        report.packets_delivered,
        report.by_kind,
        (report.detected, report.degraded, report.recovered, report.silent),
        report.degraded_stats,
        report.recovered_stats,
        # Packet ids come from a process-wide counter: compare the rest.
        [(e.cycle, e.kind, e.node, e.flavor, e.outcome) for e in report.events],
    )


@pytest.mark.parametrize("disturb", WHO, indirect=True)
def test_fault_campaign_is_unchanged(disturb, monkeypatch):
    disturbed, disturbed_counters = _campaign()
    monkeypatch.undo()
    expected, expected_counters = _campaign()
    assert _outcome(disturbed) == _outcome(expected)
    assert disturbed_counters == expected_counters
    # The run really recovered faults with both layers at work.
    assert expected.recovered > 0
    assert expected.recovered_stats["retransmissions"] > 0
    assert expected.recovered_stats["invariant_recoveries"] > 0
    kinds = {
        "DiscoRouter", "NetworkInterface", "ArrivalQueue",
        "LocalDeliveryQueue",
    }
    if disturb.who == "all":
        # Never idle here: the monitor, the frame step (a fault
        # controller is attached) and the retransmission layer (some
        # packet always awaits its ack until the drain ends).
        kinds |= {"InvariantMonitor", "CallbackComponent", "ReliabilityLayer"}
    assert disturb.kinds == kinds
