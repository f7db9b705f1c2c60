"""The switch allocator's inlined send test is ``Router._can_send``.

``Router.tick`` splits the VCs with a flit to send into requesters and
blocked VCs with an inlined copy of ``Router._can_send``.  These tests
wrap the tick on runs that reach every branch of that test: the DISCO
engine lock, fault-injected wedges, store-and-forward's whole-packet
rule, plain credits and the local port, which needs none.  For every
ACTIVE VC with a flit buffered they check that the partition's verdict
equals ``_can_send``, computed before the tick runs.

The verdict is read back through the SA hook, which the allocator calls
with this cycle's losers followed by its blocked VCs; ``sa_losses`` says
where the losers end.  The wrapper turns the hook on for plain routers
too and forwards it to the DISCO arbitrator, so the runs are unchanged.
"""

from collections import Counter

import pytest

from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.faults import CampaignSpec, FaultPlan, run_fault_campaign
from repro.noc import FlowControl, Network, NocConfig
from repro.noc.router import VC_ACTIVE, Router
from repro.noc.topology import PORT_LOCAL
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from tests.test_golden_mesh import GOLDEN_DIGESTS


def _blocked_reason(router, vc):
    job = vc.engine_job
    if job is not None and (router._jobs_block or job.committed):
        return "engine"
    if vc.wedged_until > router.network.cycle:
        return "wedge"
    if (
        router.config.flow_control is FlowControl.STORE_AND_FORWARD
        and vc.flits_received < vc.packet.size_flits
    ):
        return "saf"
    return "credit"


@pytest.fixture
def verdicts(monkeypatch):
    """Check every ``Router.tick`` call; count blocked VCs by the reason
    ``_can_send`` refused them, and requesters (local-port ones apart)."""
    seen = Counter()
    tick = Router.tick

    def checked(self, cycle):
        active = [
            vc for vc in self._bound
            if vc.state == VC_ACTIVE and vc.flits_present
        ]
        expected = [self._can_send(vc) for vc in active]
        stats = self.network.stats
        grants, losses = stats.sa_grants, stats.sa_losses
        hook_on = self._sa_hook
        forward = self._post_switch_allocation
        reported = []

        def capture(vcs):
            reported.extend(vcs)
            if hook_on:
                forward(vcs)

        self._sa_hook = True
        self._post_switch_allocation = capture
        try:
            at = tick(self, cycle)
        finally:
            self._sa_hook = hook_on
            del self._post_switch_allocation
        lost = stats.sa_losses - losses
        blocked = {id(vc) for vc in reported[lost:]}
        assert len(blocked) == len(reported) - lost
        for vc, ok in zip(active, expected):
            assert (id(vc) not in blocked) == ok, (
                f"router {self.node} port {vc.port} vc {vc.vc_index}: "
                f"_can_send says {ok}, the partition disagrees"
            )
            if not ok:
                seen[_blocked_reason(self, vc)] += 1
            elif vc.out_port == PORT_LOCAL:
                seen["local"] += 1
            else:
                seen["requester"] += 1
        assert stats.sa_grants - grants + lost == expected.count(True)
        seen["calls"] += 1
        return at

    monkeypatch.setattr(Router, "tick", checked)
    return seen


def _traffic(network, cycles=400, rate=0.12, seed=2):
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=rate, seed=seed)
    )
    traffic.run(cycles)
    assert len(traffic.delivered) == traffic.generated


def test_golden_disco_spec(verdicts):
    spec = RunSpec(
        scheme="disco", workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    )
    result = runner._simulate(spec)
    assert runner.result_digest(result) == GOLDEN_DIGESTS["disco"]
    assert verdicts["engine"] > 0 and verdicts["credit"] > 0
    assert verdicts["requester"] > 0 and verdicts["local"] > 0


def test_store_and_forward(verdicts):
    _traffic(
        Network(
            NocConfig(flow_control=FlowControl.STORE_AND_FORWARD, vc_depth=12)
        )
    )
    assert verdicts["saf"] > 0 and verdicts["requester"] > 0


def test_fault_run_with_wedged_vcs(verdicts):
    plan = FaultPlan(seed=1, wedge_rate=0.02, credit_rate=0.01)
    report = run_fault_campaign(CampaignSpec(cycles=500), plan)
    assert report.silent == 0, report.summary()
    assert verdicts["wedge"] > 0 and verdicts["requester"] > 0
