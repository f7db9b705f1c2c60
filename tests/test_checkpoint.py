"""Crash-safe checkpoint/restore: round-trip invariance and envelopes.

The tentpole guarantee: a simulation snapshotted mid-run and restored
into a *fresh process-equivalent* system finishes bit-identical to an
uninterrupted run — pinned against the five golden fabric digests of
``test_golden_mesh``, so checkpointing can never drift the physics.
Around it: RDK1 envelope corruption handling (quarantine + generation
fallback), the provably-inert default, and the SIGKILL/resume campaign
path exercised with real processes.
"""

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import checkpoint, runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, run_spec, spec_key
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


def _build_cold(spec):
    """Full cold-start construction, as ``runner._simulate`` does it."""
    from repro.cmp.schemes import make_scheme
    from repro.cmp.system import CmpSystem
    from repro.workloads.trace import generate_traces

    config = spec.config()
    traces = generate_traces(
        spec.profile(),
        config.n_cores,
        spec.accesses_per_core,
        seed=spec.seed,
        line_size=config.line_size,
    )
    system = CmpSystem(
        config,
        make_scheme(spec.scheme, algorithm=spec.algorithm),
        traces,
        warmup_fraction=spec.warmup_fraction,
    )
    runner._train_if_needed(system, spec)
    return system


class TestRoundTripInvariance:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
    def test_restore_reproduces_the_golden_digest(self, scheme):
        """Pause mid-run, pickle the state (as a checkpoint would),
        restore into a *fresh* system, finish: bit-identical to the
        uninterrupted golden run — same full/measured snapshots, cycles
        and latency, byte for byte."""
        spec = RunSpec(scheme=scheme, **QUICK)
        paused = _build_cold(spec)
        assert paused.run(pause_at=1500) is None
        assert paused.cycle >= 1500  # genuinely mid-run
        state = pickle.loads(
            pickle.dumps(paused.state_dict(), pickle.HIGHEST_PROTOCOL)
        )
        fresh = checkpoint.build_system(spec)
        fresh.load_state(state)
        result = fresh.run()
        assert result_digest(result) == GOLDEN_DIGESTS[scheme], (
            f"restored {scheme} run diverged from the golden digest — "
            f"checkpoint/restore is not state-complete"
        )

    def test_kernel_rejects_version_mismatch(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        system = _build_cold(spec)
        assert system.run(pause_at=200) is None
        state = system.state_dict()
        bad_version = dict(state, version=99)
        with pytest.raises(ValueError, match="version"):
            checkpoint.build_system(spec).load_state(bad_version)
        # Version 1 kernel snapshots carried a scheduler mode; refused.
        old_kernel = dict(state["kernel"], version=1)
        with pytest.raises(ValueError, match="kernel snapshot version 1"):
            checkpoint.build_system(spec).load_state(
                dict(state, kernel=old_kernel)
            )


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
