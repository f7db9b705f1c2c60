"""Crash-safe checkpoint/restore: round-trip invariance and envelopes.

The tentpole guarantee: a simulation paused mid-run, pickled whole (a
checkpoint is the live system) and loaded back finishes bit-identical
to an uninterrupted run — pinned against the five golden fabric digests
of ``test_golden_mesh`` and the 16x16 golden, and for every layer a
``RunSpec`` can switch on, so checkpointing can never drift the physics.
Around it: RDK1 envelope corruption handling (quarantine + generation
fallback), the provably-inert default, and the SIGKILL/resume campaign
path exercised with real processes.
"""

import hashlib
import os
import pickle
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.compression import base as compression_base
from repro.compression.base import CachedCompressor
from repro.compression.registry import get_algorithm
from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.experiments import checkpoint, runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, run_spec, spec_key
from repro.faults import CampaignSpec, FaultController, FaultPlan
from repro.noc import Network
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from tests.test_golden_large_mesh import LARGE_MESH_DIGESTS
from tests.test_golden_mesh import GOLDEN_DIGESTS, result_digest

QUICK = dict(workload="blackscholes", accesses_per_core=QUICK_ACCESSES)


@pytest.fixture(autouse=True)
def _fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_CHECKPOINT_INTERVAL",
        "REPRO_CHECKPOINT_DIR",
        "REPRO_RESUME",
        "REPRO_SIM_LOG",
    ):
        monkeypatch.delenv(var, raising=False)
    runner.clear_cache()
    yield
    runner.clear_cache()


def _round_trip(system):
    """Pickle a paused system as a checkpoint does and load it back."""
    restored = pickle.loads(pickle.dumps(system, pickle.HIGHEST_PROTOCOL))
    assert restored is not system
    return restored


#: One spec per layer a ``RunSpec`` can switch on, paused at cycle 1,500.
LAYERS = {
    "sampler": dict(scheme="disco", stats_interval=100),
    "tracer": dict(
        scheme="disco",
        trace_packets=True,
        trace_sample_interval=3,
        stats_interval=250,
    ),
    "profile": dict(scheme="disco", profile_run=True),
    "sc2": dict(scheme="disco", algorithm="sc2"),
    "cnc-fpc": dict(scheme="cnc", algorithm="fpc"),
    "torus": dict(scheme="disco", topology="torus"),
}


class TestRoundTripInvariance:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
    def test_restore_reproduces_the_golden_digest(self, scheme):
        """Pause mid-run, pickle the live system (as a checkpoint does),
        unpickle it, finish: bit-identical to the uninterrupted golden
        run — same full/measured snapshots, cycles and latency, byte for
        byte."""
        spec = RunSpec(scheme=scheme, **QUICK)
        paused = runner.build_system(spec)
        assert paused.run(pause_at=1500) is None
        assert paused.cycle >= 1500  # genuinely mid-run
        result = _round_trip(paused).run()
        assert result_digest(result) == GOLDEN_DIGESTS[scheme], (
            f"restored {scheme} run diverged from the golden digest — "
            f"checkpoint/restore is not state-complete"
        )

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_restore_reproduces_every_layer(self, layer):
        """Telemetry, profiling, trained and NI-side algorithms and the
        torus's escape VCs survive the round trip: the restored run
        matches an uninterrupted one in digest and telemetry payload."""
        spec = RunSpec(**LAYERS[layer], **QUICK)
        expected = runner.build_system(spec).run()
        paused = runner.build_system(spec)
        assert paused.run(pause_at=1500) is None
        result = _round_trip(paused).run()
        assert result_digest(result) == result_digest(expected)
        assert result.telemetry == expected.telemetry
        if spec.profile_run:
            assert result.profile is not None

    def test_restore_reproduces_the_16x16_golden_digest(self):
        """The sparse 16x16 mesh: routers reach each other through their
        VCs, so only the network's flat router list keeps the pickle
        within the default recursion limit."""
        spec = RunSpec(
            scheme="disco", workload="blackscholes", width=16, height=16,
            accesses_per_core=40, seed=7,
        )
        paused = runner.build_system(spec)
        assert paused.run(pause_at=800) is None
        result = _round_trip(paused).run()
        assert result_digest(result) == LARGE_MESH_DIGESTS["disco"]


class TestFaultedNetworkRoundTrip:
    """A fabric with the network's observers attached — the fault
    controller (the ``net.faults`` component), retransmission and the
    invariant monitor in squash mode — pickled mid-run and resumed
    finishes where the uninterrupted run does."""

    @staticmethod
    def _run(pause_at=None, cycles=600):
        spec = CampaignSpec(retransmission=True)
        network = Network(
            spec.noc_config(),
            router_factory=make_disco_router_factory(DiscoConfig()),
        )
        network.packet_priority = disco_priority
        plan = FaultPlan(
            seed=2, wedge_rate=0.01, credit_rate=0.02, end_cycle=cycles
        )
        network.attach_faults(FaultController(plan, raise_on_violation=False))
        traffic = SyntheticTraffic(
            network, TrafficConfig(injection_rate=0.06, seed=1)
        )
        for _ in range(cycles):
            traffic.step()
            if traffic.network.cycle == pause_at:
                traffic = pickle.loads(
                    pickle.dumps(traffic, pickle.HIGHEST_PROTOCOL)
                )
        network = traffic.network
        network.run_until_quiescent(max_cycles=20_000)
        return traffic, network

    @staticmethod
    def _outcome(traffic, network):
        return (
            network.cycle,
            network.kernel.stats.snapshot(),
            network.faults.by_kind,
            # Packet ids come from a process-wide counter: compare the rest.
            [
                (p.src, p.dst, p.injected_cycle, p.ejected_cycle, p.line)
                for p in traffic.delivered
            ],
        )

    def test_resumed_run_matches_the_uninterrupted_one(self):
        expected = self._outcome(*self._run())
        traffic, network = self._run(pause_at=300)
        assert self._outcome(traffic, network) == expected
        assert network.kernel.components("net.faults") == [network.faults]
        assert network.reliability is not None and network.monitor is not None
        by_kind = network.faults.by_kind
        assert by_kind.get("wedge") and by_kind.get("credit")
        assert len(traffic.delivered) == traffic.generated


class TestSharedMemo:
    def test_shared_memo_is_referenced_never_copied(self):
        """A stateless algorithm's process-wide memo travels as its key:
        growing the memo between two pickles leaves the blobs
        byte-equal, and a loaded system re-attaches the process's memo."""
        spec = RunSpec(scheme="disco", **QUICK)
        paused = runner.build_system(spec)
        assert paused.run(pause_at=1500) is None
        algorithm = paused.algorithm
        assert isinstance(algorithm, CachedCompressor)
        key = algorithm.shared_key
        assert key is not None
        before = pickle.dumps(paused, pickle.HIGHEST_PROTOCOL)
        other = get_algorithm(spec.algorithm)
        assert other.shared_key == key
        rng = random.Random(17)
        lines = [rng.randbytes(64) for _ in range(64)]
        for line in lines:
            other.compress(line)
        memo = compression_base._SHARED_CACHES[key]
        assert all(line in memo for line in lines)
        assert pickle.dumps(paused, pickle.HIGHEST_PROTOCOL) == before
        assert pickle.loads(before).algorithm._cache is memo


class TestInertDefault:
    def test_off_by_default_no_session_no_files(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        assert checkpoint.session_for(spec) is None
        run_spec(spec)
        assert not checkpoint.checkpoint_dir().exists()

    def test_interval_zero_keeps_golden_digest_and_cache_envelope(self):
        """Checkpointing off must be *provably* inert: the result hits the
        pre-checkpoint golden digest and the disk-cache envelope format is
        untouched."""
        spec = RunSpec(scheme="disco", **QUICK)
        result = run_spec(spec)
        assert result_digest(result) == GOLDEN_DIGESTS["disco"]
        blob = runner._disk_path(spec).read_bytes()
        assert blob.startswith(runner._CACHE_MAGIC)
        payload = blob[runner._ENVELOPE_HEADER:]
        assert (
            blob[len(runner._CACHE_MAGIC):runner._ENVELOPE_HEADER]
            == hashlib.sha256(payload).digest()
        )

    def test_periodic_checkpointing_does_not_change_results(
        self, monkeypatch
    ):
        """With checkpointing *on*, the digest still matches golden and
        the envelopes are discarded once the run completes."""
        monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "500")
        spec = RunSpec(scheme="disco", **QUICK)
        result = run_spec(spec)
        assert result_digest(result) == GOLDEN_DIGESTS["disco"]
        current, previous = checkpoint.checkpoint_paths(spec_key(spec))
        assert not current.exists() and not previous.exists()


class TestEnvelopes:
    def _saved(self, key="k" * 8, cycle=123):
        checkpoint.save_checkpoint(key, cycle, {"payload": list(range(8))})
        return key

    def test_save_load_round_trip(self):
        key = self._saved()
        envelope = checkpoint.load_checkpoint(key)
        assert envelope["cycle"] == 123
        assert envelope["state"] == {"payload": list(range(8))}

    def test_last_two_generations_retained(self):
        key = self._saved(cycle=100)
        checkpoint.save_checkpoint(key, 200, {"payload": "newer"})
        current, previous = checkpoint.checkpoint_paths(key)
        assert current.exists() and previous.exists()
        assert checkpoint.load_checkpoint(key)["cycle"] == 200

    def test_truncated_envelope_quarantined_falls_back(self):
        key = self._saved(cycle=100)
        checkpoint.save_checkpoint(key, 200, {"payload": "newer"})
        current, _ = checkpoint.checkpoint_paths(key)
        current.write_bytes(current.read_bytes()[:-5])
        envelope = checkpoint.load_checkpoint(key)
        assert envelope["cycle"] == 100  # older generation served
        assert current.with_name(current.name + ".corrupt").exists()

    def test_wrong_magic_quarantined(self):
        key = self._saved()
        current, _ = checkpoint.checkpoint_paths(key)
        current.write_bytes(b"RDK0" + current.read_bytes()[4:])
        assert checkpoint.load_checkpoint(key) is None
        assert current.with_name(current.name + ".corrupt").exists()

    def test_checksum_valid_but_unpicklable_quarantined(self):
        key = self._saved()
        current, _ = checkpoint.checkpoint_paths(key)
        payload = b"not a pickle, but faithfully checksummed"
        current.write_bytes(
            checkpoint.CHECKPOINT_MAGIC
            + hashlib.sha256(payload).digest()
            + payload
        )
        assert checkpoint.load_checkpoint(key) is None
        assert current.with_name(current.name + ".corrupt").exists()

    def test_misfiled_key_quarantined(self):
        key = self._saved()
        current, _ = checkpoint.checkpoint_paths(key)
        other = checkpoint.checkpoint_paths("other-key")[0]
        other.parent.mkdir(parents=True, exist_ok=True)
        os.replace(current, other)
        assert checkpoint.load_checkpoint("other-key") is None
        assert other.with_name(other.name + ".corrupt").exists()

    def test_discard_removes_both_generations(self):
        key = self._saved(cycle=100)
        checkpoint.save_checkpoint(key, 200, {"payload": "newer"})
        checkpoint.discard_checkpoints(key)
        current, previous = checkpoint.checkpoint_paths(key)
        assert not current.exists() and not previous.exists()


_CHILD = """\
import sys
from repro.experiments.runner import RunSpec, run_spec, QUICK_ACCESSES
spec = RunSpec(scheme="disco", workload="blackscholes",
               accesses_per_core=QUICK_ACCESSES)
result = run_spec(spec)
from tests.test_golden_mesh import result_digest
print("digest:" + result_digest(result))
from repro.experiments.checkpoint import restores
print("restores:" + str(restores()))
"""


class TestKillResume:
    def test_sigkilled_run_resumes_from_checkpoint(self, tmp_path):
        """Real-process crash/recover: SIGKILL a checkpointing child
        mid-run, relaunch with ``REPRO_RESUME=1``, and require (a) the
        resumed child actually restored a checkpoint and (b) its final
        digest is byte-identical to the golden uninterrupted run."""
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_CHECKPOINT_INTERVAL="200",
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        spec = RunSpec(scheme="disco", **QUICK)
        ckpt = (
            tmp_path / "cache" / "checkpoints" / f"{spec_key(spec)}.ckpt"
        )
        deadline = time.monotonic() + 120
        while not ckpt.exists():
            if child.poll() is not None:
                pytest.fail(
                    "child finished before writing any checkpoint — "
                    "shrink the interval"
                )
            if time.monotonic() > deadline:
                child.kill()
                pytest.fail("no checkpoint appeared within 120s")
            time.sleep(0.02)
        child.send_signal(signal.SIGKILL)
        child.wait()

        env["REPRO_RESUME"] = "1"
        resumed = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        lines = dict(
            line.split(":", 1)
            for line in resumed.stdout.splitlines()
            if ":" in line
        )
        assert int(lines["restores"]) >= 1, resumed.stdout
        assert lines["digest"] == GOLDEN_DIGESTS["disco"], (
            "resumed run diverged from the golden digest"
        )
        # Success discards the envelopes; the disk-cache result remains.
        assert not ckpt.exists()
