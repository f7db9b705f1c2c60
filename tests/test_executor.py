"""The one execution core (:class:`repro.experiments.runner.Executor`).

``run_specs`` and the campaign service both run their attempts through
one executor, so they share one retry rule and one journal rule.  These
tests pin that rule directly (a decision table), check that the two
callers leave the same journal trail for the same spec, and prove the
dispatch bound with a real SIGKILL: a killed batch leaves at most
``jobs`` specs journaled ``running`` without a terminal state, so
crash-loop quarantine on resume never fires on a spec that never ran.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    ERROR,
    FAILED,
    INTERRUPTED,
    QUARANTINED,
    RETRY,
    Executor,
    RunnerError,
    RunSpec,
    clear_cache,
    run_specs,
    spec_key,
)
from repro.service import CampaignService

#: Small enough to keep each simulation around a tenth of a second.
QUICK = dict(workload="x264", accesses_per_core=40)


@pytest.fixture(autouse=True)
def _fresh(tmp_path, monkeypatch):
    """Each test gets a private cache dir and a clean environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_DISK_CACHE",
        "REPRO_JOBS",
        "REPRO_RUNNER_FAULT",
        "REPRO_SPEC_TIMEOUT",
        "REPRO_RETRY_BACKOFF",
        "REPRO_RESUME",
        "REPRO_QUARANTINE_AFTER",
        "REPRO_WATCHDOG_SECONDS",
        "REPRO_HEARTBEAT_DIR",
        "REPRO_CHECKPOINT_INTERVAL",
        "REPRO_SIM_LOG",
    ):
        monkeypatch.delenv(var, raising=False)
    clear_cache()
    yield
    clear_cache()


def _journal_states(key):
    """Every state the journal recorded for ``key``, in order."""
    path = runner._journal_path()
    if not path.exists():
        return []
    states = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["key"] == key:
            states.append(record["state"])
    return states


class TestRetryDecision:
    """The one retry rule both callers apply (bound 3, base 0.2s)."""

    SPEC = RunSpec(scheme="disco", **QUICK)

    @pytest.mark.parametrize(
        "kind, n, verdict, factor",
        [
            (ERROR, 1, RETRY, 1),
            (ERROR, 2, FAILED, None),
            (INTERRUPTED, 1, RETRY, 1),
            (INTERRUPTED, 2, RETRY, 2),
            (INTERRUPTED, 3, QUARANTINED, None),
            (INTERRUPTED, 4, QUARANTINED, None),
        ],
    )
    def test_decision_table(self, monkeypatch, kind, n, verdict, factor):
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
        got, delay = Executor.decide(kind, n, self.SPEC)
        assert got == verdict
        if factor is None:
            assert delay == 0.0
        else:
            expected = min(runner._retry_backoff(self.SPEC) * factor, 5.0)
            assert delay == pytest.approx(expected)

    def test_delay_doubles_per_interruption_up_to_the_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "10")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "1.0")
        base = runner._retry_backoff(self.SPEC)
        delays = [
            Executor.decide(INTERRUPTED, n, self.SPEC)[1] for n in range(1, 6)
        ]
        assert delays == [
            pytest.approx(min(base * 2 ** (n - 1), 5.0)) for n in range(1, 6)
        ]
        assert delays[-1] == 5.0  # 16x the base is past the cap

    def test_zero_backoff_retries_immediately(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert Executor.decide(ERROR, 1, self.SPEC) == (RETRY, 0.0)
        assert Executor.decide(INTERRUPTED, 2, self.SPEC) == (RETRY, 0.0)

    def test_terminal_verdicts_are_journaled(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "2")
        Executor.decide(ERROR, 2, self.SPEC, "k-failed", RuntimeError("x"))
        Executor.decide(INTERRUPTED, 2, self.SPEC, "k-quarantined")
        Executor.decide(ERROR, 1, self.SPEC, "k-retried", RuntimeError("x"))
        assert _journal_states("k-failed") == ["failed"]
        assert _journal_states("k-quarantined") == ["quarantined"]
        assert _journal_states("k-retried") == []  # a retry is not terminal


class TestCrossCallerParity:
    def test_crash_once_leaves_the_same_journal_trail(
        self, tmp_path, monkeypatch
    ):
        """One crash-once spec (plus a clean one, so the batch really uses
        a pool) through ``run_specs(jobs=2)`` and ``CampaignService(
        workers=2)``, each on a fresh cache: both journal the crashing
        spec pending, running, running, done."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        crashing = RunSpec(scheme="baseline", **QUICK)
        clean = RunSpec(scheme="disco", **QUICK)
        trails = []
        for caller in ("run_specs", "service"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / caller))
            monkeypatch.setenv(
                "REPRO_RUNNER_FAULT",
                f"crash-once:baseline:x264:{tmp_path / caller}.marker",
            )
            clear_cache()
            if caller == "run_specs":
                assert len(run_specs([crashing, clean], jobs=2)) == 2
            else:
                service = CampaignService(
                    workers=2, rate=1000.0, burst=1000.0
                ).start()
                try:
                    job = service.submit(specs=[crashing, clean], client="p")
                    for event in job.stream(timeout=60.0):
                        if event["type"] in ("done", "timeout"):
                            assert event["type"] == "done"
                            assert event["failed"] == 0
                            break
                finally:
                    service.shutdown(drain=False, timeout=10.0)
            assert Path(f"{tmp_path / caller}.marker").exists()
            trails.append(
                (
                    _journal_states(spec_key(crashing)),
                    _journal_states(spec_key(clean)),
                )
            )
        assert trails[0] == trails[1]
        assert trails[0] == (
            ["pending", "running", "running", "done"],
            ["pending", "running", "done"],
        )


_KILLED_CHILD = r"""
from repro.experiments.runner import RunSpec, run_specs

specs = [RunSpec(scheme="disco", workload="x264", accesses_per_core=600,
                 seed=seed) for seed in range(8)]
run_specs(specs, jobs=2)
"""


class TestDispatchBound:
    JOBS = 2
    SPECS = [
        RunSpec(
            scheme="disco", workload="x264", accesses_per_core=600, seed=seed
        )
        for seed in range(8)
    ]

    def _kill_after_first_done(self, cache: Path) -> None:
        """Run the batch in a child and SIGKILL its whole process group
        (the batch and its pool workers) as soon as one spec is done."""
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_CHILD],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            process_group=0,
        )
        journal = cache / "campaign.journal.jsonl"
        deadline = time.monotonic() + 120.0
        try:
            while not (
                journal.exists() and '"done"' in journal.read_text("utf-8")
            ):
                assert child.poll() is None, "the batch ended before a kill"
                assert time.monotonic() < deadline, "no spec ever finished"
                time.sleep(0.01)
        finally:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()

    def test_kill_leaves_at_most_jobs_running_and_resume_finishes(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        self._kill_after_first_done(cache)
        entries = runner._journal_read()
        assert any(entry["state"] == "done" for entry in entries.values())
        # Only attempts a worker has taken are journaled running.
        dangling = {
            key for key, entry in entries.items()
            if entry["state"] == "running"
        }
        assert len(dangling) <= self.JOBS
        # Resume with the tightest crash-loop bound: only dangling specs
        # are quarantined (one published just before the kill is served
        # from the cache instead) and every other spec completes.
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        try:
            completed = run_specs(self.SPECS, jobs=self.JOBS, resume=True)
            failures = {}
        except RunnerError as error:
            completed, failures = error.completed, error.failures
        assert {spec_key(spec) for spec in failures} <= dangling
        for exc in failures.values():
            assert "quarantined after 1 interrupted attempts" in str(exc)
        assert len(completed) == len(self.SPECS) - len(failures)


class TestConcurrentDispatch:
    def test_more_threads_than_cores_lose_no_update(self, monkeypatch):
        """Four dispatch threads on a 2-core host with a tiny switch
        interval: every spec resolves exactly once, is journaled done,
        and the simulated-run counter (bumped from every thread) loses
        no increment."""
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "60")
        specs = [RunSpec(scheme="baseline", seed=seed, **QUICK) for seed in range(12)]
        before = runner.simulated_runs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_specs(specs, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert set(out) == set(specs)
        assert runner.simulated_runs() - before == len(specs)
        entries = runner._journal_read()
        assert all(entries[spec_key(spec)]["state"] == "done" for spec in specs)
