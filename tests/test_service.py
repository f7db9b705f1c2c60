"""Tests for the always-on campaign service (:mod:`repro.service`).

Covers the admission layer (token buckets, queue-depth backpressure,
structured ``Overloaded`` sheds), the one-heap scheduler (priority
ordering, retries, crash-loop quarantine, result streaming) and the
stdlib HTTP frontend — all with the same tiny specs the runner tests
use, so the whole suite stays fast.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    RunSpec,
    clear_cache,
    clear_disk_cache,
    result_digest,
    run_spec,
    spec_key,
)
from repro.service import (
    CampaignService,
    Overloaded,
    OverloadedError,
    ServiceClient,
    serve,
    spec_from_payload,
)
from repro.service import scheduler
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.jobs import Job

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
        "REPRO_QUARANTINE_AFTER",
        "REPRO_WATCHDOG_SECONDS",
        "REPRO_HEARTBEAT_DIR",
        "REPRO_SIM_LOG",
    ):
        monkeypatch.delenv(var, raising=False)
    clear_cache()
    yield
    clear_cache()


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@contextlib.contextmanager
def running_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("rate", 1000.0)
    kwargs.setdefault("burst", 1000.0)
    service = CampaignService(**kwargs).start()
    try:
        yield service
    finally:
        service.shutdown(drain=False, timeout=10.0)


def _collect(job):
    """Stream a job to completion; returns (results, failures, done)."""
    results, failures, done = [], [], None
    for event in job.stream(timeout=60.0):
        if event["type"] == "result":
            results.append(event)
        elif event["type"] == "failed":
            failures.append(event)
        elif event["type"] == "done":
            done = event
        elif event["type"] == "timeout":
            raise AssertionError("job stream timed out")
    return results, failures, done


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert bucket.take(4.0)  # the whole burst at once
        assert not bucket.take(1.0)  # empty: denied, nothing spent
        clock.advance(0.5)  # 2/s * 0.5s = 1 token back
        assert bucket.take(1.0)
        assert not bucket.take(0.5)

    def test_refill_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 3.0

    def test_refill_delay_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=8.0, clock=clock)
        assert bucket.refill_delay(2.0) == 0.0
        bucket.take(8.0)
        # 6 tokens short at 4/s = 1.5s.
        assert bucket.refill_delay(6.0) == pytest.approx(1.5)

    def test_failed_take_spends_nothing(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert not bucket.take(5.0)
        assert bucket.tokens == 2.0


class TestAdmissionController:
    def test_too_large_submission_is_futile(self):
        control = AdmissionController(max_queue_depth=8, clock=FakeClock())
        decision = control.admit("alice", units=9, queue_depth=0)
        assert decision is not None
        assert decision.reason == "too_large"
        assert control.stats.shed_too_large == 1
        assert control.stats.units_shed == 9

    def test_queue_full_hint_scales_with_drain_rate(self):
        control = AdmissionController(
            rate=100.0, burst=100.0, max_queue_depth=10, clock=FakeClock()
        )
        # 8 queued + 4 new = 2 over the bound, draining 4/s -> 0.5s hint.
        decision = control.admit("a", units=4, queue_depth=8, drain_rate=4.0)
        assert decision.reason == "queue_full"
        assert decision.retry_after == pytest.approx(0.5)
        # No drain-rate signal falls back to the 1s default.
        decision = control.admit("a", units=4, queue_depth=8, drain_rate=0.0)
        assert decision.retry_after == pytest.approx(1.0)

    def test_exactly_at_the_bound_admits(self):
        control = AdmissionController(
            rate=100.0, burst=100.0, max_queue_depth=10, clock=FakeClock()
        )
        assert control.admit("a", units=4, queue_depth=6) is None
        assert control.stats.jobs_admitted == 1

    def test_rate_limited_hint_is_the_refill_time(self):
        clock = FakeClock()
        control = AdmissionController(
            rate=2.0, burst=4.0, max_queue_depth=100, clock=clock
        )
        assert control.admit("bob", units=4, queue_depth=0) is None
        decision = control.admit("bob", units=2, queue_depth=0)
        assert decision.reason == "rate_limited"
        assert decision.retry_after == pytest.approx(1.0)  # 2 short at 2/s
        # The shed spent nothing: after exactly that long, the retry wins.
        clock.advance(1.0)
        assert control.admit("bob", units=2, queue_depth=0) is None

    def test_clients_have_independent_buckets(self):
        control = AdmissionController(
            rate=1.0, burst=1.0, max_queue_depth=100, clock=FakeClock()
        )
        assert control.admit("a", units=1, queue_depth=0) is None
        assert control.admit("a", units=1, queue_depth=0) is not None
        assert control.admit("b", units=1, queue_depth=0) is None

    def test_retry_after_is_capped(self):
        control = AdmissionController(
            rate=0.001, burst=1.0, max_queue_depth=2000, clock=FakeClock()
        )
        control.admit("a", units=1, queue_depth=0)
        decision = control.admit("a", units=1, queue_depth=0)
        assert decision.retry_after == AdmissionController.MAX_RETRY_AFTER

    def test_overloaded_payload_shape(self):
        decision = Overloaded(
            reason="queue_full", retry_after=1.2345, client="c", detail="d"
        )
        payload = decision.to_dict()
        assert payload == {
            "error": "overloaded",
            "reason": "queue_full",
            "retry_after": 1.234,
            "client": "c",
            "detail": "d",
        }


# --------------------------------------------------------------------------
# job model
# --------------------------------------------------------------------------


class TestJobModel:
    def test_unknown_spec_fields_are_rejected_by_name(self):
        with pytest.raises(ValueError, match="acesses_per_core"):
            spec_from_payload(
                {"scheme": "baseline", "workload": "x264",
                 "acesses_per_core": 40}
            )

    def test_spec_needs_scheme_and_workload(self):
        with pytest.raises(ValueError, match="scheme"):
            spec_from_payload({"workload": "x264"})

    def test_late_joiner_replays_full_history(self):
        job = Job("c", 5, [("spec", RunSpec(scheme="baseline", **QUICK))])
        job.publish({"type": "result", "index": 0, "job": job.job_id})
        job.publish({"type": "done", "job": job.job_id})
        # Joined after completion: the stream replays everything, in order.
        events = list(job.stream(timeout=1.0))
        assert [e["type"] for e in events] == ["result", "done"]
        assert job.state == "done"

    def test_stream_timeout_yields_synthetic_event(self):
        job = Job("c", 5, [("spec", RunSpec(scheme="baseline", **QUICK))])
        events = list(job.stream(timeout=0.05, poll=0.01))
        assert events[-1]["type"] == "timeout"

    def test_claim_done_fires_exactly_once(self):
        job = Job("c", 5, [("spec", RunSpec(scheme="baseline", **QUICK))])
        assert not job.claim_done()  # nothing resolved yet
        job.publish({"type": "result", "index": 0, "job": job.job_id})
        assert job.claim_done()
        assert not job.claim_done()


# --------------------------------------------------------------------------
# the scheduler, end to end
# --------------------------------------------------------------------------


class TestCampaignService:
    def test_sweep_completes_with_bit_identical_digests(self):
        specs = [
            RunSpec(scheme="baseline", **QUICK),
            RunSpec(scheme="disco", **QUICK),
        ]
        # Golden digests from the in-process runner, then a cold start.
        expected = {
            spec_key(s): result_digest(run_spec(s)) for s in specs
        }
        clear_cache()
        clear_disk_cache()
        with running_service() as service:
            job = service.submit(specs=specs, client="tests")
            assert isinstance(job, Job)
            results, failures, done = _collect(job)
            assert failures == []
            assert done["completed"] == 2 and done["failed"] == 0
            for event in results:
                assert event["digest"] == expected[event["key"]]
                assert event["cached"] is False
            # Same sweep again: served from the caches, same digests.
            again = service.submit(specs=specs, client="tests")
            results2, _, _ = _collect(again)
            assert {e["key"]: e["digest"] for e in results2} == expected
            assert all(e["cached"] for e in results2)
            assert service.stats.cache_hits == 2
            assert service.stats.jobs_completed == 2
            # Spec units flow through the campaign journal.
            entries = runner._journal_read()
            for spec in specs:
                assert entries[spec_key(spec)]["state"] == "done"

    def test_accepts_client_dict_specs(self):
        with running_service(workers=1) as service:
            job = service.submit(
                specs=[dict(scheme="baseline", **QUICK)], client="dicts"
            )
            results, failures, _ = _collect(job)
            assert len(results) == 1 and not failures

    def test_priority_preempts_fifo_order(self):
        service = CampaignService(workers=1, rate=1000.0, burst=1000.0)
        service._accepting = True  # queue deterministically before start
        low = service.submit(
            specs=[RunSpec(scheme="baseline", seed=s, **QUICK)
                   for s in (1, 2)],
            client="low",
            priority=9,
        )
        high = service.submit(
            specs=[RunSpec(scheme="disco", seed=s, **QUICK)
                   for s in (1, 2)],
            client="high",
            priority=0,
        )
        # Both queued before any worker runs: the single worker must
        # drain every priority-0 unit before the first priority-9 one.
        service.start()
        try:
            _collect(high)
            _collect(low)
            assert high.finished_ts <= low.finished_ts
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_first_dispatch_takes_the_best_queued_unit(self, monkeypatch):
        service = CampaignService(workers=2, rate=1000.0, burst=1000.0)
        service._accepting = True  # queue deterministically before start
        low = service.submit(
            specs=[RunSpec(scheme="baseline", seed=s, **QUICK)
                   for s in (1, 2)],
            client="low",
            priority=9,
        )
        high = service.submit(
            specs=[RunSpec(scheme="disco", **QUICK)],
            client="high",
            priority=0,
        )
        # Each dispatcher holds the first unit it takes until released,
        # so the two dispatchers take exactly one unit each.
        taken, release = [], threading.Event()

        def hold(unit):
            taken.append(unit)
            release.wait(timeout=30.0)

        monkeypatch.setattr(service, "_execute", hold)
        service.start()
        try:
            deadline = time.monotonic() + 10.0
            while len(taken) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # The two best queued units, whichever dispatcher took which:
            # the priority-0 unit, then the older priority-9 one.
            assert {unit.order_key() for unit in taken} == {
                high.units[0].order_key(), low.units[0].order_key()
            }
        finally:
            release.set()
            service.shutdown(drain=False, timeout=10.0)

    def test_transient_error_retries_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "fault.marker"
        monkeypatch.setenv(
            "REPRO_RUNNER_FAULT", f"crash-once:baseline:x264:{marker}"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with running_service(workers=1) as service:
            job = service.submit(
                specs=[RunSpec(scheme="baseline", **QUICK)], client="retry"
            )
            results, failures, _ = _collect(job)
            assert len(results) == 1 and not failures
            assert service.stats.retries == 1
            assert service.stats.units_completed == 1

    def test_persistent_error_fails_after_bounded_retries(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "crash:baseline:x264")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        with running_service(workers=1) as service:
            spec = RunSpec(scheme="baseline", **QUICK)
            job = service.submit(specs=[spec], client="fail")
            results, failures, _ = _collect(job)
            assert results == [] and len(failures) == 1
            assert "injected runner fault" in failures[0]["error"]
            assert failures[0]["quarantined"] is False
            assert service.stats.retries == 1  # one retry, then failed
            assert service.stats.units_failed == 1
            assert service.stats.jobs_failed == 1
            assert job.state == "failed"
            entries = runner._journal_read()
            assert entries[spec_key(spec)]["state"] == "failed"

    def test_worker_death_loop_quarantines_at_the_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_FAULT", "exit:baseline:x264")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "2")
        with running_service(workers=1) as service:
            spec = RunSpec(scheme="baseline", **QUICK)
            job = service.submit(specs=[spec], client="chaos")
            results, failures, _ = _collect(job)
            assert results == [] and len(failures) == 1
            assert failures[0]["quarantined"] is True
            assert "2 interrupted attempts" in failures[0]["error"]
            assert service.stats.units_quarantined == 1
            assert service.stats.retries == 1  # N-1 retries before the bound
            assert service.stats.worker_respawns >= 1
            entries = runner._journal_read()
            assert entries[spec_key(spec)]["state"] == "quarantined"

    def test_queue_full_and_too_large_shed(self):
        service = CampaignService(
            workers=1, rate=1000.0, burst=1000.0, max_queue_depth=3
        )
        # Not started: admitted units stay queued, so depth is exact.
        service._accepting = True
        job = service.submit(
            specs=[RunSpec(scheme="baseline", seed=s, **QUICK)
                   for s in (1, 2, 3)],
            client="bulk",
        )
        assert isinstance(job, Job)
        shed = service.submit(
            specs=[RunSpec(scheme="disco", **QUICK)], client="late"
        )
        assert isinstance(shed, Overloaded)
        assert shed.reason == "queue_full"
        assert shed.retry_after >= 0.1
        too_big = service.submit(
            specs=[RunSpec(scheme="disco", seed=s, **QUICK)
                   for s in (1, 2, 3, 4)],
            client="huge",
        )
        assert too_big.reason == "too_large"
        stats = service.admission.stats
        assert stats.jobs_admitted == 1
        assert stats.jobs_shed == 2
        assert stats.shed_queue_full == 1
        assert stats.shed_too_large == 1

    def test_rate_limited_shed_carries_refill_hint(self):
        service = CampaignService(workers=1, rate=0.5, burst=2.0)
        service._accepting = True  # admission runs without workers
        for index in range(2):
            job = service.submit(
                specs=[RunSpec(scheme="baseline", seed=index, **QUICK)],
                client="greedy",
            )
            assert isinstance(job, Job)
        shed = service.submit(
            specs=[RunSpec(scheme="baseline", seed=9, **QUICK)],
            client="greedy",
        )
        assert isinstance(shed, Overloaded)
        assert shed.reason == "rate_limited"
        assert 0.05 <= shed.retry_after <= 2.0
        assert service.admission.stats.shed_rate_limited == 1

    def test_shutdown_drains_then_refuses_submissions(self):
        with running_service(workers=1) as service:
            job = service.submit(
                specs=[RunSpec(scheme="baseline", **QUICK)], client="c"
            )
            assert service.shutdown(drain=True, timeout=30.0)
            assert job.finished()
            before = service.admission.stats.counters()
            shed = service.submit(
                specs=[RunSpec(scheme="disco", **QUICK)], client="c"
            )
            assert isinstance(shed, Overloaded)
            assert "shutting down" in shed.detail
            after = service.admission.stats.counters()
            for name in ("jobs_shed", "units_shed", "shed_queue_full"):
                assert after[name] == before[name] + 1, name

    def test_counters_flow_through_the_registry(self):
        with running_service(workers=1) as service:
            job = service.submit(
                specs=[RunSpec(scheme="baseline", **QUICK)], client="c"
            )
            _collect(job)
            snapshot = service.snapshot().to_dict()
            assert snapshot["service"]["units_completed"] == 1
            assert snapshot["service"]["queue_age_samples"] == 1
            assert snapshot["admission"]["jobs_admitted"] == 1
            assert service.events.mean("queue_age_ms", 60.0) >= 0.0

    def test_campaign_units_run_through_the_pool(self):
        payload = {
            "spec": {
                "width": 2,
                "height": 2,
                "cycles": 200,
                "injection_rate": 0.05,
            },
            "plan": {"seed": 1, "drop_rate": 0.02},
        }
        with running_service(workers=1) as service:
            job = service.submit(campaigns=[payload], client="faults")
            results, failures, _ = _collect(job)
            assert not failures
            summary = results[0]["campaign"]
            assert summary["kind"] == "fault_campaign"
            assert summary["cycles_run"] >= 200
            assert summary["packets_sent"] > 0

    def test_malformed_campaign_payload_fails_the_unit(self):
        with running_service(workers=1) as service:
            job = service.submit(
                campaigns=[{"plan": {"seed": 1, "bogus_knob": 3}}],
                client="faults",
            )
            results, failures, _ = _collect(job)
            assert results == [] and len(failures) == 1
            assert "bogus_knob" in failures[0]["error"]

    def test_two_services_share_one_cache_without_corruption(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        with running_service(workers=1) as a, running_service(workers=1) as b:
            job_a = a.submit(specs=[spec], client="a")
            job_b = b.submit(specs=[spec], client="b")
            results_a, failures_a, _ = _collect(job_a)
            results_b, failures_b, _ = _collect(job_b)
        assert not failures_a and not failures_b
        assert results_a[0]["digest"] == results_b[0]["digest"]
        cache = runner.cache_dir()
        assert not list(cache.glob("*.corrupt"))
        assert not list(cache.glob("*.tmp"))


class TestJobWindow:
    def test_unfinished_jobs_stay_and_finished_leave_oldest_first(
        self, monkeypatch
    ):
        monkeypatch.setattr(scheduler, "FINISHED_JOB_WINDOW", 2)
        spec = RunSpec(scheme="baseline", **QUICK)
        run_spec(spec)  # every unit below resolves from the memo
        service = CampaignService(workers=1, rate=1000.0, burst=1000.0)
        service._accepting = True  # resolve units by hand, no dispatchers
        held = service.submit(specs=[spec, spec], client="held")
        jobs = [service.submit(specs=[spec], client="c") for _ in range(4)]
        service._execute(held.units[0])
        for job in jobs:
            service._execute(job.units[0])
            assert held.job_id in service.jobs
        assert not held.finished()
        assert list(service.jobs) == [
            held.job_id, jobs[2].job_id, jobs[3].job_id,
        ]
        service._execute(held.units[1])
        assert list(service.jobs) == [held.job_id, jobs[3].job_id]
        assert service.stats.jobs_completed == 5


# --------------------------------------------------------------------------
# the HTTP frontend
# --------------------------------------------------------------------------


@pytest.fixture
def http_service():
    service = CampaignService(workers=2, rate=1000.0, burst=1000.0).start()
    server = serve(service, "127.0.0.1", 0)
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    try:
        yield service, client, port
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=10.0)


class TestServiceHTTP:
    def test_submit_stream_status_stats_roundtrip(self, http_service):
        service, client, _ = http_service
        job_id = client.submit(
            specs=[
                dict(scheme="baseline", **QUICK),
                dict(scheme="disco", **QUICK),
            ],
            client="http-tests",
        )
        results, failures = client.wait(job_id)
        assert len(results) == 2 and failures == []
        assert {event["scheme"] for event in results} == {
            "baseline", "disco",
        }
        assert all(event["digest"] for event in results)
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["completed"] == 2
        stats = client.stats()
        assert stats["counters"]["service"]["units_completed"] == 2
        assert "queue_age_ms_mean_60s" in stats
        ok, _ = client.health("live")
        assert ok
        ok, detail = client.health("ready")
        assert ok and detail["workers_alive"]

    def test_bad_requests_get_structured_errors(self, http_service):
        _, client, port = http_service
        with pytest.raises(RuntimeError, match="unknown RunSpec fields"):
            client.submit(
                specs=[{"scheme": "baseline", "workload": "x264",
                        "bogus_field": 1}]
            )
        with pytest.raises(RuntimeError, match="404"):
            client.status("nonexistent")
        with pytest.raises(RuntimeError, match=r"stream failed \(404\).*unknown_job"):
            client.wait("nonexistent")
        # Unknown routes 404 too.
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/nope", method="GET"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_a_retired_job_answers_404(self, http_service, monkeypatch):
        _, client, port = http_service
        monkeypatch.setattr(scheduler, "FINISHED_JOB_WINDOW", 1)
        spec = dict(scheme="baseline", **QUICK)
        first = client.submit(specs=[spec], client="window")
        client.wait(first)
        second = client.submit(specs=[spec], client="window")
        client.wait(second)
        assert client.status(second)["state"] == "done"
        with pytest.raises(RuntimeError, match=r"status failed \(404\)"):
            client.status(first)
        with pytest.raises(RuntimeError, match=r"stream failed \(404\)"):
            client.wait(first)
        for route in ("status", "stream"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/{route}/{first}", timeout=10
                )
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read()) == {
                "error": "unknown_job", "job": first,
            }

    def test_unknown_submit_keys_are_rejected_by_name(self, http_service):
        """A typo'd ``priorty`` must not queue the job at the default
        priority: the whole submission is refused before admission."""
        service, _, port = http_service
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/submit",
            data=json.dumps(
                {"specs": [dict(scheme="baseline", **QUICK)], "priorty": 1}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "bad_request"
        assert "priorty" in body["detail"]
        assert service.jobs == {}

    def test_shed_is_fast_structured_and_carries_retry_after(self):
        service = CampaignService(workers=1, rate=0.01, burst=1.0).start()
        server = serve(service, "127.0.0.1", 0)
        port = server.server_address[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
        try:
            client.submit(specs=[dict(scheme="baseline", **QUICK)],
                          client="greedy")
            started = time.monotonic()
            with pytest.raises(OverloadedError) as excinfo:
                client.submit(specs=[dict(scheme="disco", **QUICK)],
                              client="greedy")
            elapsed = time.monotonic() - started
            assert elapsed < 1.0  # sheds answer fast, even under load
            assert excinfo.value.reason == "rate_limited"
            assert excinfo.value.retry_after > 0
            # The raw response carries the Retry-After header as well.
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/submit",
                data=json.dumps(
                    {"client": "greedy",
                     "specs": [dict(scheme="disco", **QUICK)]}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as http_info:
                urllib.request.urlopen(request, timeout=10)
            assert http_info.value.code == 429
            assert float(http_info.value.headers["Retry-After"]) > 0
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False, timeout=10.0)


class TestServiceCLI:
    def test_main_serves_then_exits_cleanly_on_sigterm(self, tmp_path):
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists():
                assert process.poll() is None, process.stdout.read().decode()
                assert time.monotonic() < deadline, "service never came up"
                time.sleep(0.05)
            port = int(port_file.read_text())
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
            ok, _ = client.health("ready")
            assert ok
            job_id = client.submit(
                specs=[dict(scheme="baseline", **QUICK)], client="cli"
            )
            results, failures = client.wait(job_id)
            assert len(results) == 1 and not failures
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
