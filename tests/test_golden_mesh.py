"""Golden determinism: the default Table 2 mesh is bit-identical.

The digests below were captured on the pre-fabric-refactor tree (fixed
5-port mesh, module-level XY routing) over the fig5/fig6 quick specs.
Every refactor of the NoC must leave the default ``NocConfig()`` mesh
producing byte-for-byte identical ``CounterSnapshot``s — any change to
arbitration order, VC allocation, routing, or placement shows up here as
a digest mismatch.

If a PR *intentionally* changes default-mesh semantics (a new stat, a
fixed bug), re-capture the digests and say so in the PR; this file
failing on an "invisible" refactor means the refactor is not invisible.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, run_spec
from tests.tick_all import simulate_tick_all

#: scheme -> sha256 over (full snapshot, measured snapshot, cycles,
#: avg miss latency) for the quick blackscholes spec.
GOLDEN_DIGESTS = {
    "baseline": "1f3195721da8a4fa50ab5d2ab0310849f0566faa9cf78dc86da7cf8ffbbf6bd9",
    "cc": "2152aacebe9bc32634a77afe938d84e526cc91399a1a3ccb5ebe028091d80ec1",
    "cnc": "21d962814a8ce770618f207bb7898816ce454e74fd84023baf345d946bd82e4f",
    "disco": "67d36c7911db5853835846dd3ffd69537b02ecb992b20e1e6d6d2c7c62cf375b",
    "ideal": "169456c1d86868bf7da1dff964dab521fb273e4df4ce4a583575d319201585cc",
}


def result_digest(result) -> str:
    payload = {
        "full": sorted(result.snapshot_full.flat().items()),
        "measured": sorted(result.snapshot_measured.flat().items()),
        "cycles": result.cycles,
        "avg_miss_latency": result.avg_miss_latency,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


#: ``result_digest`` of the ledger's service unit — the first fresh unit
#: of the ``service-closed`` workload's first client — so the 2x2 shape
#: has a golden of its own.
SERVICE_UNIT_DIGEST = (
    "a222cdf0adce082bec2d2811f8c441d20d6b10e01b3d027667bd485e3707bf54"
)


@pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
def test_default_mesh_counter_snapshots_are_golden(scheme):
    spec = RunSpec(
        scheme=scheme, workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    )
    # The default spec must still be the Table 2 mesh.
    assert spec.topology == "mesh"
    assert spec.noc_config().vcs_per_vnet == 1
    result = run_spec(spec)
    assert result_digest(result) == GOLDEN_DIGESTS[scheme], (
        f"default-mesh {scheme} run diverged from the pre-refactor golden "
        f"digest — the Table 2 fabric is no longer bit-identical"
    )


def test_service_unit_is_golden():
    spec = RunSpec(
        scheme="disco", workload="canneal", width=2, height=2,
        accesses_per_core=200, seed=100007,
    )
    # ``_simulate`` bypasses every cache: a genuinely fresh run.
    result = runner._simulate(spec)
    assert result_digest(result) == SERVICE_UNIT_DIGEST, (
        "the 2x2 service unit diverged from its golden digest"
    )


@pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
def test_tick_all_kernel_reproduces_the_goldens(scheme, monkeypatch):
    """Event-vs-tick invariance: the poll-everything reference scheduler
    (:mod:`tests.tick_all`) must hit the same five digests as the
    wakeup scheduler.

    It runs through ``runner._simulate``, so this is a genuinely
    independent tick-all run, not a cache readback.
    """
    spec = RunSpec(
        scheme=scheme, workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
    )
    result = simulate_tick_all(spec, monkeypatch)
    assert result_digest(result) == GOLDEN_DIGESTS[scheme], (
        f"tick-all {scheme} run diverged from the golden digest — the "
        f"event-driven scheduler is not behaviour-preserving"
    )


def test_simulator_runs_without_numpy():
    """numpy is not a dependency: with it made unimportable, a fresh
    quick disco run still hits its golden digest."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.experiments import runner\n"
        "spec = runner.RunSpec(scheme='disco', workload='blackscholes',\n"
        "                      accesses_per_core=runner.QUICK_ACCESSES)\n"
        "print(runner.result_digest(runner._simulate(spec)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.strip() == GOLDEN_DIGESTS["disco"]


def test_kernels_agree_under_telemetry(monkeypatch):
    """Mode invariance with the telemetry layer attached (sampler interval
    = a timed wakeup every 64 cycles, plus per-packet tracing).

    The ``kernel`` stat group (idle-efficiency counters) measures the
    scheduler itself, so it is popped before comparing; everything else
    must match field for field.
    """
    spec = RunSpec(
        scheme="disco", workload="blackscholes",
        accesses_per_core=QUICK_ACCESSES,
        stats_interval=64, trace_packets=True,
    )
    event = run_spec(spec)
    tick = simulate_tick_all(spec, monkeypatch)

    def strip(snapshot):
        return {g: snapshot[g] for g in snapshot if g != "kernel"}

    assert strip(event.snapshot_full) == strip(tick.snapshot_full)
    assert strip(event.snapshot_measured) == strip(tick.snapshot_measured)
    assert event.cycles == tick.cycles
    assert event.avg_miss_latency == tick.avg_miss_latency
