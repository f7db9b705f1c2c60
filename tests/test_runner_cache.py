"""The experiment runner's caches and parallel fan-out.

The simulator is deterministic, so a :class:`RunSpec` is a content
address: these tests pin the three properties the figure experiments
lean on — the key is stable across processes, parallel results are
bit-identical to serial ones, and the disk cache hits/misses/invalidates
exactly when it should.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.experiments import checkpoint, runner, supervision
from repro.experiments.report import run_grids
from repro.experiments.runner import (
    DONE,
    Executor,
    RunnerError,
    RunSpec,
    clear_cache,
    clear_disk_cache,
    default_jobs,
    run_spec,
    run_specs,
    spec_key,
)

#: Small enough to keep each simulation around a tenth of a second.
QUICK = dict(workload="x264", accesses_per_core=40)


@pytest.fixture(autouse=True)
def _fresh_caches(tmp_path, monkeypatch):
    """Each test gets an empty memo cache and a private disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_RUNNER_FAULT", raising=False)
    monkeypatch.delenv("REPRO_SPEC_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_RETRY_BACKOFF", raising=False)
    monkeypatch.delenv("REPRO_RESUME", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_INTERVAL", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    monkeypatch.delenv("REPRO_QUARANTINE_AFTER", raising=False)
    monkeypatch.delenv("REPRO_WATCHDOG_SECONDS", raising=False)
    monkeypatch.delenv("REPRO_HEARTBEAT_DIR", raising=False)
    monkeypatch.delenv("REPRO_SIM_LOG", raising=False)
    monkeypatch.setattr(runner, "_ENV_WARNED", set())
    clear_cache()
    yield
    clear_cache()


class TestSpecKey:
    def test_stable_within_process(self):
        spec = RunSpec(scheme="disco", **QUICK)
        assert spec_key(spec) == spec_key(RunSpec(scheme="disco", **QUICK))

    def test_differs_across_specs_and_code_version(self, monkeypatch):
        a = spec_key(RunSpec(scheme="disco", **QUICK))
        assert a != spec_key(RunSpec(scheme="cc", **QUICK))
        monkeypatch.setattr(runner, "CODE_VERSION", "next")
        assert a != spec_key(RunSpec(scheme="disco", **QUICK))

    def test_stable_across_processes(self):
        """The content address must not depend on interpreter state
        (PYTHONHASHSEED randomizes ``hash()`` per process)."""
        spec = RunSpec(scheme="disco", **QUICK)
        code = (
            "from repro.experiments.runner import RunSpec, spec_key;"
            "print(spec_key(RunSpec(scheme='disco', workload='x264',"
            " accesses_per_core=40)))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert child.stdout.strip() == spec_key(spec)


class TestDiskCache:
    def test_miss_simulates_then_hit_skips(self, monkeypatch):
        spec = RunSpec(scheme="baseline", **QUICK)
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        first = run_spec(spec)
        assert calls == [spec]  # miss -> simulated
        clear_cache()  # drop the memo; the disk entry must satisfy the rerun
        second = run_spec(spec)
        assert calls == [spec]  # hit -> not simulated again
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_code_version_bump_invalidates(self, monkeypatch):
        spec = RunSpec(scheme="baseline", **QUICK)
        run_spec(spec)
        old_key = spec_key(spec)
        clear_cache()
        monkeypatch.setattr(runner, "CODE_VERSION", "2")
        assert spec_key(spec) != old_key
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        run_spec(spec)
        assert calls == [spec]  # stale entry ignored, simulation re-ran

    def test_corrupt_entry_recomputed(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        result = run_spec(spec)
        path = runner._disk_path(spec)
        path.write_bytes(b"not a pickle")
        clear_cache()
        again = run_spec(spec)
        assert dataclasses.asdict(again) == dataclasses.asdict(result)

    def _corrupt_roundtrip(self, mutate):
        """Shared scaffold: poison a valid entry with ``mutate(path)``,
        then check the lookup recomputes cleanly and quarantines the bad
        entry exactly once (one ``*.corrupt`` file, stable thereafter)."""
        spec = RunSpec(scheme="baseline", **QUICK)
        result = run_spec(spec)
        path = runner._disk_path(spec)
        mutate(path)
        clear_cache()
        again = run_spec(spec)
        assert dataclasses.asdict(again) == dataclasses.asdict(result)
        corrupt = list(runner.cache_dir().glob("*.corrupt"))
        assert len(corrupt) == 1, corrupt
        assert path.exists()  # a fresh, valid entry was republished
        # The quarantined entry is never touched again: further lookups
        # hit the fresh entry and do not mint more *.corrupt files.
        clear_cache()
        run_spec(spec)
        assert list(runner.cache_dir().glob("*.corrupt")) == corrupt

    def test_truncated_entry_quarantined_once(self):
        self._corrupt_roundtrip(
            lambda path: path.write_bytes(path.read_bytes()[:-7])
        )

    def test_wrong_version_entry_quarantined_once(self):
        def downgrade(path):
            blob = path.read_bytes()
            path.write_bytes(b"RDC0" + blob[4:])  # stale envelope magic

        self._corrupt_roundtrip(downgrade)

    def test_unpicklable_payload_quarantined_once(self):
        def repoison(path):
            # Checksum-valid envelope whose payload is not a pickle at
            # all: validation passes, reconstruction cannot.
            payload = b"not a pickle, but faithfully checksummed"
            path.write_bytes(
                runner._CACHE_MAGIC
                + hashlib.sha256(payload).digest()
                + payload
            )

        self._corrupt_roundtrip(repoison)

    def test_corrupt_entries_do_not_abort_the_batch(self):
        """A poisoned entry inside a multi-spec batch is quarantined and
        recomputed in place; the other specs are untouched."""
        specs = [
            RunSpec(scheme=scheme, **QUICK)
            for scheme in ("baseline", "cc", "disco")
        ]
        first = run_specs(specs, jobs=1)
        for mutate in (
            lambda blob: blob[:-7],  # truncated
            lambda blob: b"RDC0" + blob[4:],  # wrong magic
            lambda blob: (  # checksum-valid but unpicklable
                runner._CACHE_MAGIC + hashlib.sha256(b"junk").digest() + b"junk"
            ),
        ):
            path = runner._disk_path(specs[1])
            path.write_bytes(mutate(path.read_bytes()))
            clear_cache()
            again = run_specs(specs, jobs=1)
            for spec in specs:
                assert dataclasses.asdict(again[spec]) == dataclasses.asdict(
                    first[spec]
                )
        # All three corruptions hit the same entry, so quarantine reuses
        # one ``.corrupt`` name (last overwrite wins) — never a pile-up.
        corrupt = list(runner.cache_dir().glob("*.corrupt"))
        assert len(corrupt) == 1, corrupt

    def test_unreadable_entry_quarantined_once(self):
        def replace_with_directory(path):
            # A directory at the entry path fails the read itself (not
            # just validation) — and does so even when tests run as root,
            # unlike a chmod-000 file.
            path.unlink()
            path.mkdir()

        self._corrupt_roundtrip(replace_with_directory)

    def test_opt_out_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        spec = RunSpec(scheme="baseline", **QUICK)
        run_spec(spec)
        assert not runner._disk_path(spec).exists()

    def test_clear_disk_cache_counts_files(self):
        run_spec(RunSpec(scheme="baseline", **QUICK))
        run_spec(RunSpec(scheme="cc", **QUICK))
        assert clear_disk_cache() == 2
        assert clear_disk_cache() == 0

    def test_entries_round_trip_through_pickle(self):
        spec = RunSpec(scheme="disco", **QUICK)
        result = run_spec(spec)
        blob = runner._disk_path(spec).read_bytes()
        # Envelope: 4-byte magic + 32-byte SHA-256 of the pickle payload.
        assert blob.startswith(runner._CACHE_MAGIC)
        payload = blob[runner._ENVELOPE_HEADER:]
        assert (
            blob[len(runner._CACHE_MAGIC):runner._ENVELOPE_HEADER]
            == hashlib.sha256(payload).digest()
        )
        stored = pickle.loads(payload)
        assert dataclasses.asdict(stored) == dataclasses.asdict(result)
        # The structured snapshots survive too, not just scalar fields.
        assert stored.counters_measured == result.counters_measured


class TestParallel:
    SPECS = [
        RunSpec(scheme=scheme, **QUICK)
        for scheme in ("baseline", "cc", "cnc", "disco")
    ]

    def test_parallel_results_bit_identical_to_serial(self):
        serial = run_specs(self.SPECS, jobs=1)
        clear_cache()
        clear_disk_cache()
        parallel = run_specs(self.SPECS, jobs=2)
        assert set(serial) == set(parallel)
        for spec in self.SPECS:
            assert dataclasses.asdict(serial[spec]) == dataclasses.asdict(
                parallel[spec]
            ), f"serial/parallel divergence for {spec.scheme}"

    def test_run_specs_dedupes_and_reuses_cache(self, monkeypatch):
        spec = RunSpec(scheme="baseline", **QUICK)
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        out = run_specs([spec, spec, spec], jobs=1)
        assert calls == [spec]
        assert list(out) == [spec]
        # A second batch is satisfied wholly from the memo cache.
        run_specs([spec], jobs=2)
        assert calls == [spec]

    def test_run_grids_shape(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        workloads = ("x264", "canneal")
        grid = run_grids(
            {"quick": {
                w: dict(workload=w, accesses_per_core=40) for w in workloads
            }},
            ["disco"],
            "baseline",
        )["quick"]
        assert set(grid.results) == {
            (w, s) for w in workloads for s in ("baseline", "disco")
        }
        for (workload, scheme), result in grid.results.items():
            assert (result.workload, result.scheme) == (workload, scheme)
            assert result.cycles > 0

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.warns(RuntimeWarning):
            assert default_jobs() == (os.cpu_count() or 1)

    def test_default_jobs_warns_once_on_invalid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='many'"):
            assert default_jobs() == (os.cpu_count() or 1)
        # One-time: the fallback stays, the nagging does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_jobs() == (os.cpu_count() or 1)

    @pytest.mark.skipif(
        os.environ.get("REPRO_PERF_TESTS") != "1",
        reason="wall-clock speedup needs >=2 free CPUs; set REPRO_PERF_TESTS=1",
    )
    def test_parallel_speedup(self):
        specs = [
            RunSpec(scheme=scheme, workload=workload, accesses_per_core=400)
            for scheme in ("baseline", "cc", "cnc", "disco")
            for workload in ("x264", "canneal")
        ]
        start = time.perf_counter()
        run_specs(specs, jobs=1)
        serial = time.perf_counter() - start
        clear_cache()
        clear_disk_cache()
        start = time.perf_counter()
        run_specs(specs, jobs=os.cpu_count())
        parallel = time.perf_counter() - start
        assert serial / parallel >= 2.0


class TestFailureContainment:
    """A misbehaving worker must not take the batch down with it.

    These tests sabotage real pool workers through the
    ``REPRO_RUNNER_FAULT`` hook in :func:`runner._simulate` — actual
    crashed/killed/hung processes, not monkeypatched stand-ins.
    """

    SPECS = [
        RunSpec(scheme="disco", workload=workload, accesses_per_core=40)
        for workload in ("x264", "dedup", "canneal")
    ]

    def test_crashed_worker_keeps_survivors_and_names_the_spec(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:disco:dedup")
        with pytest.raises(RunnerError) as excinfo:
            run_specs(self.SPECS, jobs=3)
        error = excinfo.value
        assert [spec.workload for spec in error.failures] == ["dedup"]
        assert set(error.completed) == {self.SPECS[0], self.SPECS[2]}
        # The message names the failing spec — and only that one.
        assert "dedup" in str(error)
        assert "x264" not in str(error) and "canneal" not in str(error)
        # Survivors were published: a fault-free rerun only recomputes
        # the failed spec (the others hit the memo/disk caches).
        monkeypatch.delenv("REPRO_RUNNER_FAULT")
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        out = run_specs(self.SPECS, jobs=1)
        assert len(out) == 3
        assert calls == [self.SPECS[1]]

    def test_transient_crash_retried_once_and_succeeds(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "fired"
        monkeypatch.setenv(
            "REPRO_RUNNER_FAULT", f"crash-once:disco:dedup:{marker}"
        )
        out = run_specs(self.SPECS, jobs=2)
        assert len(out) == 3
        assert marker.exists()  # the fault really fired (and was retried)

    def test_dead_worker_falls_back_to_serial(self, monkeypatch):
        # os._exit in a worker kills it without unwinding -> the pool
        # breaks.  The fallback reruns in-process, where the exit mode
        # never fires, so the whole batch still completes.
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "exit:disco:dedup")
        out = run_specs(self.SPECS, jobs=3)
        assert len(out) == 3
        for spec in self.SPECS:
            assert out[spec].cycles > 0

    def test_hung_worker_times_out_and_retry_succeeds(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "hung"
        monkeypatch.setenv(
            "REPRO_RUNNER_FAULT", f"hang-once:disco:dedup:{marker}"
        )
        monkeypatch.setenv("REPRO_RUNNER_HANG_SECONDS", "3")
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "1.0")
        start = time.perf_counter()
        out = run_specs(self.SPECS, jobs=3)
        assert len(out) == 3
        assert marker.exists()
        # The batch must not have waited out the full hang serially per
        # spec; the hung future was abandoned after its timeout.
        assert time.perf_counter() - start < 30

    def test_serial_path_contains_failures_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:disco:dedup")
        with pytest.raises(RunnerError) as excinfo:
            run_specs(self.SPECS, jobs=1)
        assert len(excinfo.value.completed) == 2
        assert [s.workload for s in excinfo.value.failures] == ["dedup"]

    def test_persistent_crash_reports_first_attempt_reason(
        self, monkeypatch
    ):
        # Both attempts crash: the error must carry the retry's exception
        # in ``failures`` AND name the first attempt's, so flaky-then-
        # fatal sequences are triageable from the message alone.
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:disco:dedup")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with pytest.raises(RunnerError) as excinfo:
            run_specs(self.SPECS, jobs=3)
        error = excinfo.value
        [failed] = list(error.failures)
        assert failed.workload == "dedup"
        assert isinstance(error.prior.get(failed), RuntimeError)
        assert "first attempt:" in str(error)
        assert "injected runner fault" in str(error)


class TestSerialTimeout:
    def test_serial_path_enforces_spec_timeout(self, monkeypatch):
        """``REPRO_SPEC_TIMEOUT`` must bound serial in-process runs too,
        not just pool futures: a run that blows its budget raises
        ``TimeoutError`` through both attempts and lands in the failure
        set with the first symptom recorded."""
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "0.05")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        spec = RunSpec(
            scheme="disco", workload="x264", accesses_per_core=2000
        )
        with pytest.raises(RunnerError) as excinfo:
            run_specs([spec], jobs=1)
        assert isinstance(excinfo.value.failures[spec], TimeoutError)
        assert isinstance(excinfo.value.prior.get(spec), TimeoutError)


class TestWatchdog:
    def test_heartbeats_carry_the_simulated_cycle(
        self, tmp_path, monkeypatch
    ):
        """A run's heartbeat carries its simulated cycle while the run is
        in flight, and is gone once the run returns."""
        hb_dir = tmp_path / "hb"
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        beat = hb_dir / f"hb_{os.getpid()}.json"
        records = []
        hook = supervision.progress_hook

        def reading_hook(spec):
            progress = hook(spec)

            def _progress(system):
                progress(system)
                if beat.exists():
                    records.append(json.loads(beat.read_text("utf-8")))

            return _progress

        monkeypatch.setattr(supervision, "progress_hook", reading_hook)
        run_spec(RunSpec(scheme="baseline", **QUICK))
        assert records, "no heartbeat while the run was in flight"
        assert records[0]["pid"] == os.getpid()
        assert records[0]["cycle"] > 0
        assert list(hb_dir.glob("hb_*.json")) == []

    def test_failed_heartbeat_write_leaves_no_staging_file(
        self, tmp_path, monkeypatch
    ):
        hb_dir = tmp_path / "hb"
        # A directory where the heartbeat goes makes every publish fail.
        (hb_dir / f"hb_{os.getpid()}.json").mkdir(parents=True)
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        run_spec(RunSpec(scheme="baseline", **QUICK))
        assert list(hb_dir.glob("*.tmp")) == []

    def test_wedged_worker_is_killed_slow_one_is_not(self, tmp_path):
        """The watchdog kills a process whose heartbeat *cycle* freezes,
        and only that one — an advancing counter (merely slow) is safe."""
        hb_dir = tmp_path / "hb"
        hb_dir.mkdir()
        sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
        wedged = subprocess.Popen(sleeper)
        slow = subprocess.Popen(sleeper)

        def beat(pid, cycle):
            (hb_dir / f"hb_{pid}.json").write_text(
                json.dumps(
                    {"pid": pid, "key": "k", "cycle": cycle, "ts": 0}
                ),
                encoding="utf-8",
            )

        beat(wedged.pid, 42)
        cycle = [0]
        dog = supervision._Watchdog(hb_dir, stall_seconds=0.4).start()
        try:
            deadline = time.monotonic() + 10
            while wedged.poll() is None:
                assert time.monotonic() < deadline, "watchdog never fired"
                cycle[0] += 1  # the slow worker keeps making progress
                beat(slow.pid, cycle[0])
                time.sleep(0.05)
            assert wedged.wait() == -signal.SIGKILL
            assert slow.poll() is None  # progressing worker untouched
        finally:
            dog.stop()
            for proc in (wedged, slow):
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        assert dog.killed == [wedged.pid]

    def test_idle_worker_is_not_killed(self, monkeypatch):
        """A finished run leaves no heartbeat, so a pool worker that idles
        past the budget is not mistaken for a wedged one."""
        monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "1")
        spec = RunSpec(scheme="baseline", width=2, height=2, **QUICK)
        executor = Executor(2)
        try:
            assert executor.attempt(spec)[0] == DONE
            time.sleep(3)
            assert executor._watchdog.killed == []
            assert list(supervision.heartbeat_dir().glob("hb_*.json")) == []
            assert executor.attempt(spec)[0] == DONE
            assert executor.generation == 0
        finally:
            executor.close()

    def test_heartbeat_dir_is_derived_per_host(self, monkeypatch):
        """Parent and workers derive one directory per host from the
        environment they share: an executor exports nothing to it."""
        assert supervision.heartbeat_dir() is None  # watchdog off
        monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "30")
        assert supervision.heartbeat_dir() == (
            runner.cache_dir() / "heartbeats" / socket.gethostname()
        )
        environ = dict(os.environ)
        executor = Executor(1)
        executor.start()
        executor.close()
        assert dict(os.environ) == environ


class TestRetryBackoff:
    def test_disabled_by_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert runner._retry_backoff() == 0.0

    def test_jitter_stays_within_half_to_one_and_a_half(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
        for _ in range(20):
            assert 0.1 <= runner._retry_backoff() <= 0.3

    def test_unparseable_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "soon-ish")
        assert 0.05 <= runner._retry_backoff() <= 0.15

    def test_spec_seeded_jitter_is_reproducible(self, monkeypatch):
        """Given a spec, the jitter comes from a generator seeded by its
        key: identical across calls and processes, decorrelated across
        specs — not a draw from the process-global RNG."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
        a = RunSpec(scheme="disco", **QUICK)
        b = RunSpec(scheme="cc", **QUICK)
        first = runner._retry_backoff(a)
        assert first == runner._retry_backoff(a)
        assert 0.1 <= first <= 0.3
        assert runner._retry_backoff(b) != first
        # Global-RNG state must not perturb the seeded draw.
        import random as _random

        _random.random()
        assert runner._retry_backoff(a) == first


class TestCampaignJournal:
    def test_states_fold_with_running_attempt_counting(self, monkeypatch):
        runner._journal_append("k1", "pending")
        runner._journal_append("k1", "running")
        runner._journal_append("k1", "done")
        runner._journal_append("k2", "running")
        runner._journal_append("k2", "running")
        entries = runner._journal_read()
        assert entries["k1"] == {"state": "done", "attempts": 0}
        assert entries["k2"] == {"state": "running", "attempts": 2}

    def test_torn_tail_is_skipped(self):
        runner._journal_append("k1", "running")
        with open(runner._journal_path(), "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "sta')  # crash mid-append
        entries = runner._journal_read()
        assert entries == {"k1": {"state": "running", "attempts": 1}}

    def test_batches_journal_done_specs(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        run_specs([spec], jobs=1)
        entries = runner._journal_read()
        assert entries[spec_key(spec)]["state"] == "done"

    def test_resume_quarantines_crash_looped_specs(self, monkeypatch):
        """A spec journaled ``running`` with no terminal record N times is
        a crash loop: resume fails it up-front instead of re-running."""
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "2")
        spec = RunSpec(scheme="baseline", **QUICK)
        key = spec_key(spec)
        runner._journal_append(key, "running")
        runner._journal_append(key, "running")
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        with pytest.raises(RunnerError) as excinfo:
            run_specs([spec], jobs=1, resume=True)
        assert calls == []  # never re-attempted
        assert "quarantined after 2 interrupted attempts" in str(
            excinfo.value.failures[spec]
        )
        assert runner._journal_read()[key]["state"] == "quarantined"

    def test_resume_skips_done_specs_without_recompute(self, monkeypatch):
        spec = RunSpec(scheme="baseline", **QUICK)
        run_specs([spec], jobs=1)
        clear_cache()  # drop the memo; disk cache + journal remain
        calls = []
        real = runner._simulate
        monkeypatch.setattr(
            runner,
            "_simulate",
            lambda s, verbose=False: calls.append(s) or real(s, verbose),
        )
        out = run_specs([spec], jobs=1, resume=True)
        assert calls == []  # served from the disk cache, not re-run
        assert out[spec].cycles > 0


_HOLDER_CHILD = r"""
import os, time
from repro.experiments import runner

def stalled_write(fd, data):  # take the lock, then never write
    print("holding", flush=True)
    time.sleep(60)

os.write = stalled_write
runner._journal_append("held", "running")
"""

_APPENDER_CHILD = r"""
import os, threading
from repro.experiments import runner

def append(tag):
    for i in range(100):
        runner._journal_append(f"{tag}-{i}", "running", pad="x" * 3000)

threads = [
    threading.Thread(target=append, args=(f"{os.getpid()}-{n}",))
    for n in range(2)
]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
"""


def _journal_child(code: str) -> subprocess.Popen:
    """A fresh interpreter journaling into this test's cache directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestJournalLock:
    def test_killed_holder_does_not_delay_the_next_append(self):
        """A writer SIGKILLed while it holds the journal lock takes the
        lock with it: the next append does not wait for it."""
        child = _journal_child(_HOLDER_CHILD)
        try:
            ready, _, _ = select.select([child.stdout], [], [], 60.0)
            assert ready, "the child never reached its write"
            assert child.stdout.readline().strip() == "holding"
        finally:
            child.kill()
            child.communicate()
        started = time.monotonic()
        runner._journal_append("next", "done")
        assert time.monotonic() - started < 1.0
        assert runner._journal_read() == {
            "next": {"state": "done", "attempts": 0}
        }

    def test_concurrent_appends_land_whole_lines(self):
        """4 processes x 2 threads x 100 appends of ~3 KB records leave
        exactly 800 whole JSON lines."""
        children = [_journal_child(_APPENDER_CHILD) for _ in range(4)]
        for child in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
        lines = runner._journal_path().read_text("utf-8").splitlines()
        assert len(lines) == 800
        records = [json.loads(line) for line in lines]
        assert len({record["key"] for record in records}) == 800
        assert all(len(record["pad"]) == 3000 for record in records)


#: Every numeric environment setting and a call that reads it.
NUMERIC_SETTINGS = {
    "REPRO_JOBS": default_jobs,
    "REPRO_RETRY_BACKOFF": lambda: runner._retry_backoff(
        RunSpec(scheme="baseline", **QUICK)
    ),
    "REPRO_SPEC_TIMEOUT": runner._spec_timeout,
    "REPRO_QUARANTINE_AFTER": runner._quarantine_after,
    "REPRO_WATCHDOG_SECONDS": supervision.watchdog_seconds,
    "REPRO_CHECKPOINT_INTERVAL": checkpoint.checkpoint_interval,
}


@pytest.mark.parametrize("name", sorted(NUMERIC_SETTINGS))
def test_unparseable_number_reads_as_default_and_warns_once(name, monkeypatch):
    """``30s`` or ``10k`` must neither crash a campaign nor silently
    switch a safeguard off: the default applies, with one warning."""
    read = NUMERIC_SETTINGS[name]
    monkeypatch.delenv(name, raising=False)
    default = read()
    monkeypatch.setenv(name, "10k")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert read() == default
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(messages) == 1 and f"{name}='10k'" in messages[0], messages
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read() == default


def test_cache_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert runner.cache_dir() == Path(tmp_path / "elsewhere")


class TestQuarantineBoundary:
    """The crash-loop bound is exact: N interrupted attempts quarantine,
    N-1 retry (the other half of the boundary is
    ``test_resume_quarantines_crash_looped_specs`` above)."""

    def test_one_below_the_bound_retries_and_completes(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        spec = RunSpec(scheme="baseline", **QUICK)
        key = spec_key(spec)
        for _ in range(2):  # N-1 interrupted attempts on record
            runner._journal_append(key, "running")
        out = run_specs([spec], jobs=1, resume=True)
        assert out[spec].cycles > 0
        assert runner._journal_read()[key]["state"] == "done"

    def test_exactly_at_the_bound_quarantines(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "3")
        spec = RunSpec(scheme="baseline", **QUICK)
        key = spec_key(spec)
        for _ in range(3):
            runner._journal_append(key, "running")
        with pytest.raises(RunnerError):
            run_specs([spec], jobs=1, resume=True)
        assert runner._journal_read()[key]["state"] == "quarantined"


class TestTornTailReplay:
    def test_resume_replays_past_a_torn_tail(self, tmp_path, monkeypatch):
        """A journal whose last line was cut mid-write (writer SIGKILLed
        inside the append) must not poison resume: intact records still
        replay, the torn record is dropped, and done specs are served
        without recomputation."""
        done_spec = RunSpec(scheme="baseline", **QUICK)
        torn_spec = RunSpec(scheme="disco", **QUICK)
        run_specs([done_spec], jobs=1)
        clear_cache()  # drop the memo; disk cache + journal remain
        torn = json.dumps({"key": spec_key(torn_spec), "state": "running"})
        with open(runner._journal_path(), "a", encoding="utf-8") as handle:
            handle.write(torn[: len(torn) // 2])  # no trailing newline
        log = tmp_path / "sims.log"
        monkeypatch.setenv("REPRO_SIM_LOG", str(log))
        out = run_specs([done_spec, torn_spec], jobs=1, resume=True)
        assert set(out) == {done_spec, torn_spec}
        executed = set(log.read_text().split())
        assert spec_key(done_spec) not in executed  # no recompute
        assert spec_key(torn_spec) in executed
        entries = runner._journal_read()
        assert entries[spec_key(done_spec)]["state"] == "done"
        assert entries[spec_key(torn_spec)]["state"] == "done"


class TestStaleHeartbeatCleanup:
    def test_dead_and_torn_removed_live_and_own_kept(self, tmp_path):
        beats = tmp_path / "hb"
        beats.mkdir()
        # A pid that existed and is gone: a just-reaped child of ours.
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(child.stdout)
        (beats / f"hb_{dead_pid}.json").write_text(
            json.dumps({"pid": dead_pid, "cycle": 10})
        )
        (beats / f"hb_{os.getpid()}.json").write_text(
            json.dumps({"pid": os.getpid(), "cycle": 10})
        )
        (beats / "hb_1.json").write_text(json.dumps({"pid": 1, "cycle": 1}))
        (beats / "hb_torn.json").write_text('{"pid": 12')  # torn write
        removed = supervision.clean_stale_heartbeats(beats)
        assert removed == 2  # the dead pid and the torn file
        survivors = sorted(path.name for path in beats.glob("hb_*.json"))
        assert survivors == sorted(
            [f"hb_{os.getpid()}.json", "hb_1.json"]
        )

    def test_defaults_to_the_heartbeat_env_dir(self, tmp_path, monkeypatch):
        assert supervision.clean_stale_heartbeats() == 0  # env unset: no-op
        beats = tmp_path / "hb"
        beats.mkdir()
        (beats / "hb_junk.json").write_text("not json")
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(beats))
        assert supervision.clean_stale_heartbeats() == 1


_RACE_CHILD = r"""
import os, sys, time
from repro.experiments import runner
from repro.experiments.runner import RunSpec, result_digest

spec = RunSpec(scheme="baseline", workload="x264", accesses_per_core=40)
result = runner._simulate(spec)
deadline = float(os.environ["RACE_START"])
while time.time() < deadline:  # line both writers up on one instant
    time.sleep(0.001)
for _ in range(int(os.environ["RACE_ITERATIONS"])):
    runner._disk_store(spec, result)
    loaded = runner._disk_load(spec)
    assert loaded is not None, "reader saw a torn publish"
    assert result_digest(loaded) == result_digest(result)
print(result_digest(result))
"""


class TestConcurrentPublishRace:
    def test_two_processes_publishing_one_key_never_tear_it(
        self, tmp_path
    ):
        """Satellite regression: two processes repeatedly publishing and
        reading the same spec key against one shared cache directory.
        Atomic rename publish means every read returns a complete blob —
        no ``.corrupt`` quarantines, no leftover staging files."""
        cache = tmp_path / "shared-cache"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["RACE_START"] = str(time.time() + 2.0)
        env["RACE_ITERATIONS"] = "150"
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_CHILD],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            outputs.append(out.strip())
        assert outputs[0] == outputs[1]  # deterministic, identical bytes
        assert list(cache.glob("*.corrupt")) == []
        assert list(cache.glob("*.tmp")) == []
        assert len(list(cache.glob("*.pkl"))) == 1
