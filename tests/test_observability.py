"""Tests for the fleet observability plane.

Four properties matter, in order of importance:

1. **Inertness** — with every observability knob off (the default), the
   five golden mesh digests and the disk-cache envelope *bytes* are
   identical to a run with the plane fully on.  Observation must never
   perturb the physics.
2. **Exposition correctness** — ``GET /metrics`` renders a valid
   OpenMetrics document whose counters reconcile with ``/stats`` and the
   :class:`StatsRegistry` snapshots, even while scrapes race in-flight
   submissions.
3. **Correlation** — one id minted at submission joins the journal, the
   worker heartbeat, the flight record and :class:`RunnerError`.
4. **Postmortems** — a genuinely SIGKILLed pool worker leaves a flight
   record behind (persisted *ahead of* death by the inflight dump), and
   the SLO math is pinned on fabricated inputs.
"""

import ast
import json
import logging
import os
import re
import signal
import sys
import threading
import time
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    QUICK_ACCESSES,
    RunSpec,
    RunnerError,
    clear_cache,
    clear_disk_cache,
    run_spec,
    spec_key,
)
from repro.service import CampaignService, serve
from repro.service.jobs import Job
from repro.service.scheduler import ServiceStats
from repro.telemetry import flight
from repro.telemetry.export import latency_percentiles, percentile
from repro.telemetry.log import (
    CorrelationFilter,
    correlation_scope,
    current_correlation,
    get_logger,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    build_service_registry,
    parse_samples,
    snapshot_families,
    validate_openmetrics,
)
from repro.telemetry.events import KINDS, SAMPLED, Emitter
from repro.telemetry.slo import SLOSpec, default_slos, evaluate
from repro.telemetry.tracer import EV_EJECT, EV_INJECT, TraceEvent
from tests.test_golden_mesh import GOLDEN_DIGESTS, result_digest

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
        "REPRO_FLIGHT_DIR",
        "REPRO_SIM_LOG",
    ):
        monkeypatch.delenv(var, raising=False)
    clear_cache()
    flight.reset_for_tests()
    yield
    clear_cache()
    flight.reset_for_tests()


# --------------------------------------------------------------------------
# metric families and the exposition renderer
# --------------------------------------------------------------------------


class TestMetricFamilies:
    def test_registry_renders_a_valid_exposition(self):
        registry = MetricsRegistry()
        completed = registry.counter("repro_units_completed", "done units")
        completed.set_total(3, scheme="disco")
        completed.set_total(2, scheme="baseline")
        depth = registry.gauge("repro_queue_depth", "queued units")
        depth.set(7)
        ages = registry.histogram(
            "repro_queue_age_ms", "age at dispatch", buckets=(1.0, 10.0)
        )
        for value in (0.5, 5.0, 50.0):
            ages.observe(value)
        text = registry.render()
        assert validate_openmetrics(text) == []
        samples = parse_samples(text)
        assert samples["repro_units_completed_total"][
            (("scheme", "disco"),)
        ] == 3
        assert samples["repro_queue_depth"][()] == 7
        buckets = samples["repro_queue_age_ms_bucket"]
        assert buckets[(("le", "1"),)] == 1
        assert buckets[(("le", "10"),)] == 2  # cumulative
        assert buckets[(("le", "+Inf"),)] == 3
        assert samples["repro_queue_age_ms_count"][()] == 3
        assert text.endswith("# EOF\n")

    def test_duplicate_family_names_are_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("repro_x", "")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x", "")

    def test_invalid_names_and_labels_are_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Gauge("0bad", "")
        with pytest.raises(ValueError, match="buckets"):
            Histogram("repro_h", "", buckets=(2.0, 1.0))
        counter = Counter("repro_ok", "")
        with pytest.raises(ValueError, match="invalid label name"):
            counter.set_total(1, **{"bad-label": "x"})

    def test_validator_rejects_malformed_documents(self):
        # Missing EOF.
        assert any(
            "EOF" in error
            for error in validate_openmetrics("repro_x 1\n")
        )
        # A torn (mid-line truncated) sample.
        torn = "# TYPE repro_x counter\nrepro_x_total 3\nrepro_y_tot"
        assert validate_openmetrics(torn + "\n# EOF\n")
        # Counter sample without the _total suffix.
        bad_counter = "# TYPE repro_c counter\nrepro_c 1\n# EOF\n"
        assert any(
            "_total" in error
            for error in validate_openmetrics(bad_counter)
        )
        # Non-cumulative histogram buckets.
        bad_buckets = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            "# EOF\n"
        )
        assert any(
            "cumulative" in error
            for error in validate_openmetrics(bad_buckets)
        )
        # Duplicate samples.
        dupes = "repro_g 1\nrepro_g 2\n# EOF\n"
        assert any(
            "duplicate" in error for error in validate_openmetrics(dupes)
        )
        # Non-numeric value.
        assert any(
            "not a number" in error
            for error in validate_openmetrics("repro_g NaNOpe\n# EOF\n")
        )

    def test_check_cli_validates_metrics_files(self, tmp_path):
        from repro.telemetry.check import main as check_main

        registry = MetricsRegistry()
        registry.counter("repro_events", "test").set_total(3)
        good = tmp_path / "good.txt"
        good.write_text(registry.render())
        assert check_main(["--metrics", str(good)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("repro_x nope\n")  # bad value, no EOF
        assert check_main(["--metrics", str(bad)]) != 0

    def test_snapshot_bridge_mirrors_every_registry_counter(self):
        result = run_spec(RunSpec(scheme="disco", **QUICK))
        registry = snapshot_families(result.snapshot_full)
        text = registry.render()
        assert validate_openmetrics(text) == []
        samples = parse_samples(text)
        flat = result.snapshot_full.flat()
        # Every substrate counter surfaces, prefixed, with its exact value.
        assert len(flat) > 10
        rendered_total = sum(
            value
            for family in samples.values()
            for value in family.values()
        )
        assert rendered_total == sum(float(v) for v in flat.values())
        for name in samples:
            assert name.startswith("repro_")


# --------------------------------------------------------------------------
# percentile math (pinned)
# --------------------------------------------------------------------------


class TestPercentiles:
    def test_linear_interpolation_is_pinned_on_1_to_100(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == pytest.approx(50.5)
        assert percentile(values, 0.95) == pytest.approx(95.05)
        assert percentile(values, 0.99) == pytest.approx(99.01)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0

    def test_edge_cases(self):
        assert percentile([42.0], 0.95) == 42.0
        assert percentile([1.0, 3.0], 0.5) == 2.0  # midpoint interpolation
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 1.5)

    def test_latency_percentiles_from_trace_events(self):
        events = []
        for pid, latency in enumerate(range(1, 101)):
            events.append(TraceEvent(0, EV_INJECT, pid, 0, (0, 1, "d", 1, 0)))
            events.append(TraceEvent(latency, EV_EJECT, pid, 1, (latency,)))
        quantiles = latency_percentiles(events)
        assert quantiles == {
            "p50": pytest.approx(50.5),
            "p95": pytest.approx(95.05),
            "p99": pytest.approx(99.01),
        }
        assert latency_percentiles([]) == {}


# --------------------------------------------------------------------------
# SLO evaluation on fabricated occurrences
# --------------------------------------------------------------------------


def _emitter(now=1000.0):
    """An emitter whose clock the test moves by hand."""
    state = {"now": now}
    return Emitter(clock=lambda: state["now"]), state


def _shed(events):
    events.emit(
        "shed", client="t", reason="queue_full", units=1, retry_after=1.0
    )


class TestSLO:
    def test_quantile_objective_burns_proportionally(self):
        events, _ = _emitter()
        for age in range(1, 101):
            events.emit("dispatch", queue_age_ms=age)
        slo = SLOSpec(
            name="age", metric="queue_age_ms", objective=50.0,
            kind="quantile_max", quantile=0.95, window=60.0,
        )
        status = evaluate(slo, events)
        assert status.value == pytest.approx(95.05)
        assert status.burn_rate == pytest.approx(95.05 / 50.0)
        assert not status.ok

    def test_rate_objective_counts_events_per_second(self):
        events, _ = _emitter()
        for _ in range(30):
            _shed(events)
        slo = SLOSpec(
            name="shed", metric="shed", objective=0.25,
            kind="rate_max", window=60.0,
        )
        status = evaluate(slo, events)
        assert status.value == pytest.approx(0.5)  # 30 sheds / 60s
        assert status.burn_rate == pytest.approx(2.0)
        assert not status.ok

    def test_throughput_objective_gated_by_demand_and_uptime(self):
        events, _ = _emitter()
        slo = SLOSpec(
            name="tput", metric="completed", objective=0.1,
            kind="rate_min", window=60.0, demand_metric="admitted",
        )
        # Idle (no admitted work in the window): not burning.
        status = evaluate(slo, events, elapsed=600.0)
        assert status.ok and status.burn_rate == 0.0
        # Demand with zero completions: burning at the cap.
        events.emit(
            "admitted", job="j", corr="c", client="t", priority=5, units=1
        )
        status = evaluate(slo, events, elapsed=600.0)
        assert not status.ok and status.burn_rate == 1000.0
        # Same state on a fresh ring (uptime < window): held in abeyance.
        status = evaluate(slo, events, elapsed=5.0)
        assert status.ok and status.burn_rate == 0.0
        # Enough completions: objective met.
        for _ in range(12):
            events.emit("completed", cached=False, scheme="disco")
        status = evaluate(slo, events, elapsed=600.0)
        assert status.value == pytest.approx(0.2)
        assert status.ok

    def test_spec_validation_and_default_set(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLOSpec(name="x", metric="m", objective=1.0, kind="mean_max")
        with pytest.raises(ValueError, match="positive"):
            SLOSpec(name="x", metric="m", objective=0.0)
        # The emitter retains 120 s, so no objective may look further back.
        with pytest.raises(ValueError, match="windows"):
            SLOSpec(name="x", metric="m", objective=1.0, window=300.0)
        assert {slo.name for slo in default_slos()} == {
            "queue_age_p95", "shed_rate", "throughput",
        }


# --------------------------------------------------------------------------
# the one emit path: the KINDS table, windowed rates, the cumulative
# histogram, log lines and the flight role rule
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _emit_calls():
    """Every ``emit(...)`` call in ``src/`` outside ``events.py`` (whose
    ``Emitter.emit`` forwards to ``emit``): its location, the kind
    literals of its first argument, and its keyword names (``None`` when
    it forwards ``**fields``)."""
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "telemetry" / "events.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "emit":
                continue
            kinds = [
                const.value
                for const in ast.walk(node.args[0])
                if isinstance(const, ast.Constant)
                and isinstance(const.value, str)
            ]
            keywords = {kw.arg for kw in node.keywords}
            yield (
                f"{path.relative_to(SRC)}:{node.lineno}",
                kinds,
                None if None in keywords else keywords,
            )


def _recorder_role():
    return flight.recorder().role


def _finish(job):
    for event in job.stream(timeout=120.0):
        if event["type"] in ("done", "timeout"):
            assert event["type"] == "done"
            return


class TestEmitPath:
    def test_every_emitted_kind_is_declared_with_its_fields(self):
        calls = list(_emit_calls())
        assert len(calls) >= 15
        emitted = set()
        for where, kinds, keywords in calls:
            assert kinds, f"{where}: emit without a kind literal"
            for kind in kinds:
                assert kind in KINDS, f"{where}: undeclared kind {kind!r}"
                emitted.add(kind)
                if keywords is None:
                    continue
                spec = KINDS[kind]
                needed = set(re.findall(r"%\((\w+)\)", spec.message or ""))
                needed |= {by for by in spec.counters.values() if by}
                needed |= {spec.sample, spec.label} - {None}
                assert needed <= keywords, (
                    f"{where}: {kind!r} needs fields {needed - keywords}"
                )
        assert emitted == set(KINDS), "declared kinds nobody emits"
        stats_fields = {f.name for f in fields(ServiceStats)}
        for kind, spec in KINDS.items():
            assert set(spec.counters) <= stats_fields, kind
            assert spec.sample is None or spec.sample in SAMPLED, kind

    def test_windowed_rates_count_every_occurrence(self):
        """The ledger's service-closed median, 12.85 units/s, each unit
        emitting admitted, dispatch and completed, replayed for 150 s:
        every window reads the true rate (a 1,024-point ring read 11.40,
        5.70 and 2.85 for 30, 60 and 120 s)."""
        start, rate = 1_000_000.0, 12.85
        events, clock = _emitter(now=start)
        for index in range(int(150 * rate)):
            clock["now"] = start + index / rate
            events.emit(
                "admitted", job="j", corr="c", client="t", priority=5,
                units=1,
            )
            events.emit("dispatch", queue_age_ms=3)
            events.emit("completed", cached=False, scheme="disco")
        for window in (30.0, 60.0, 120.0):
            assert events.rate("completed", window) == pytest.approx(
                rate, rel=0.01
            )
            assert events.rate("admitted", window) == pytest.approx(
                rate, rel=0.01
            )

    def test_concurrent_emits_lose_no_update(self):
        """More emitting threads than cores, switching every microsecond:
        the counters, the histogram, the labels and the window each see
        every emit."""
        stats = ServiceStats()
        events = Emitter(stats)
        threads, per_thread = 8, 500

        def dispatcher():
            for _ in range(per_thread):
                events.emit("dispatch", unit="u", job="j", queue_age_ms=2)
                events.emit(
                    "completed", unit="u", job="j", cached=True,
                    scheme="disco",
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=dispatcher) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert stats.queue_age_samples == total
        assert stats.queue_age_ms_total == 2 * total
        assert stats.units_completed == stats.cache_hits == total
        counts, _ = events.histograms["queue_age_ms"].snapshot()
        assert counts[-1] == total
        assert events.labelled("completed") == {"disco": total}
        assert events.count("completed", 120.0) == total

    def test_queue_age_histogram_never_goes_backwards(self):
        """4,097 memo-hit dispatches: the histogram is cumulative, so its
        ``_count`` and ``_sum`` equal the ``/stats`` counters (a list cut
        from 4,096 to 2,048 entries read 2,049)."""
        spec = RunSpec(scheme="baseline", **QUICK)
        run_spec(spec)  # memoized: every unit below is a cache hit
        service = CampaignService(
            workers=1, rate=1e6, burst=1e6, max_queue_depth=8192
        ).start()
        try:
            job = service.submit(specs=[spec] * 4097, client="hist")
            assert isinstance(job, Job)
            _finish(job)
            samples = parse_samples(build_service_registry(service).render())
            counters = service.snapshot().to_dict()["service"]
        finally:
            service.shutdown(drain=False, timeout=10.0)
        assert counters["queue_age_samples"] == 4097
        assert samples["repro_service_queue_age_ms_count"][()] == 4097
        assert samples["repro_service_queue_age_ms_sum"][()] == (
            counters["queue_age_ms_total"]
        )

    def test_debug_session_logs_the_admit_retry_and_finish_lines(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "fault.marker"
        monkeypatch.setenv(
            "REPRO_RUNNER_FAULT", f"crash-once:baseline:x264:{marker}"
        )
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        messages = []

        class Capture(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        root, capture = get_logger(), Capture(level=logging.DEBUG)
        level = root.level
        root.addHandler(capture)
        root.setLevel(logging.DEBUG)
        spec = RunSpec(scheme="baseline", **QUICK)
        service = CampaignService(
            workers=1, rate=1000.0, burst=1000.0
        ).start()
        try:
            crashing = service.submit(specs=[spec], client="log")
            _finish(crashing)
            cached = service.submit(specs=[spec], client="log")
            _finish(cached)
            assert service.stats.cache_hits == 1
        finally:
            service.shutdown(drain=False, timeout=10.0)
            root.removeHandler(capture)
            root.setLevel(level)
        for job in (crashing, cached):
            assert (
                f"admitted job {job.job_id}: client=log priority=5 units=1 "
                f"corr={job.correlation}"
            ) in messages
            assert (
                f"job {job.job_id} finished: 1 completed, 0 failed"
            ) in messages
        assert [m for m in messages if m.startswith("retrying ")] == [
            f"retrying baseline/{spec.algorithm}:x264(seed {spec.seed}) "
            "in 0.00s (attempt 1): "
            "RuntimeError('injected one-shot fault for x264')"
        ]

    def test_flight_role_is_derived_per_process(self):
        """``service`` in this process and ``worker`` in a pool worker,
        whichever asks first (the first caller used to set it)."""
        assert flight.recorder().role == "service"
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_recorder_role).result(timeout=60) == "worker"
        flight.reset_for_tests()
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_recorder_role).result(timeout=60) == "worker"
        assert flight.recorder().role == "service"


# --------------------------------------------------------------------------
# correlation ids
# --------------------------------------------------------------------------


class TestCorrelation:
    def test_scope_binds_and_restores(self):
        assert current_correlation() is None
        with correlation_scope("c-abc123"):
            assert current_correlation() == "c-abc123"
            with correlation_scope("c-inner"):
                assert current_correlation() == "c-inner"
            assert current_correlation() == "c-abc123"
        assert current_correlation() is None

    def test_log_records_carry_the_ambient_correlation(self):
        captured = []

        class _Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        handler = _Capture()
        handler.addFilter(CorrelationFilter())
        logger = get_logger("repro.tests.corr")
        logger.addHandler(handler)
        try:
            logger.warning("outside")
            with correlation_scope("c-flow42"):
                logger.warning("inside")
        finally:
            logger.removeHandler(handler)
        assert captured[0].corr == "-"
        assert captured[1].corr == "c-flow42"

    def test_runner_error_appends_the_correlation(self):
        spec = RunSpec(scheme="baseline", **QUICK)
        with correlation_scope("c-failjoin"):
            error = RunnerError({spec: RuntimeError("boom")}, {})
        assert error.correlation == "c-failjoin"
        assert "corr=c-failjoin" in str(error)
        # Outside any scope: no suffix, no fabricated id.
        bare = RunnerError({spec: RuntimeError("boom")}, {})
        assert bare.correlation is None
        assert "corr=" not in str(bare)

    def test_journal_entries_carry_the_job_correlation(self):
        service = CampaignService(
            workers=1, rate=1000.0, burst=1000.0
        ).start()
        try:
            job = service.submit(
                specs=[RunSpec(scheme="baseline", **QUICK)], client="corr"
            )
            assert isinstance(job, Job)
            assert job.correlation.startswith("c-")
            for event in job.stream(timeout=60.0):
                if event["type"] in ("done", "timeout"):
                    break
            entries = runner._journal_read()
            key = spec_key(RunSpec(scheme="baseline", **QUICK))
            assert entries[key]["corr"] == job.correlation
        finally:
            service.shutdown(drain=False, timeout=10.0)


# --------------------------------------------------------------------------
# the flight recorder
# --------------------------------------------------------------------------


class TestFlightRecorder:
    def test_disabled_recorder_is_inert(self, tmp_path):
        recorder = flight.FlightRecorder(role="worker")
        recorder.record("event", detail=1)
        assert recorder.snapshot() == {"events": [], "logs": []}
        assert recorder.dump("inflight") is None
        assert not flight.enabled()
        assert list(tmp_path.iterdir()) == []

    def test_dump_schema_ring_bound_and_ambient_corr(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
        recorder = flight.FlightRecorder(role="worker", capacity=8)
        with correlation_scope("c-ringtest"):
            for index in range(20):
                recorder.record("progress", cycle=index)
            path = recorder.dump("inflight", extra={"key": "k1"})
        assert path is not None and path.name == f"flight_{os.getpid()}.json"
        record = json.loads(path.read_text())
        assert record["role"] == "worker"
        assert record["reason"] == "inflight"
        assert record["corr"] == "c-ringtest"
        assert record["extra"] == {"key": "k1"}
        # The ring is bounded: only the newest 8 events survive, and the
        # sequence numbers show how many were dropped.
        assert [e["cycle"] for e in record["events"]] == list(range(12, 20))
        assert record["events"][0]["seq"] == 13
        assert all(e["corr"] == "c-ringtest" for e in record["events"])
        # Successive dumps replace the file (newest state wins).
        recorder.record("progress", cycle=99)
        recorder.dump("inflight")
        latest = json.loads(path.read_text())
        assert latest["events"][-1]["cycle"] == 99
        assert len(flight.read_flight_records()) == 1

    @pytest.mark.parametrize("blocker", ["file_as_directory", "dir_as_target"])
    def test_failed_dump_returns_none_and_leaves_no_tmp(
        self, tmp_path, monkeypatch, blocker
    ):
        """A flight record that cannot be written is dropped, not raised,
        and its staging file goes with it.  Either the directory cannot
        be made (a file holds its path) or the record cannot be renamed
        into place (a non-empty directory holds its name), which fails
        after the staging file was written."""
        if blocker == "file_as_directory":
            (tmp_path / "occupied").write_text("a file")
            directory = tmp_path / "occupied" / "flight"
        else:
            directory = tmp_path / "flight"
            target = directory / f"flight_{os.getpid()}.json"
            target.mkdir(parents=True)
            (target / "keep").write_text("x")
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(directory))
        recorder = flight.FlightRecorder(role="worker")
        recorder.record("progress", cycle=1)
        assert recorder.dump("inflight") is None
        assert not list(tmp_path.rglob("*.tmp"))

    def test_log_tail_is_teed_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
        flight.reset_for_tests()
        recorder = flight.recorder()
        logger = get_logger("repro.tests.flightlog")
        with correlation_scope("c-logtee"):
            logger.warning("something notable")
        snapshot = recorder.snapshot()
        entries = [
            entry for entry in snapshot["logs"]
            if entry["message"] == "something notable"
        ]
        assert entries and entries[0]["corr"] == "c-logtee"

    def test_sigkilled_worker_leaves_a_flight_record(
        self, tmp_path, monkeypatch
    ):
        """The acceptance-criteria chaos path, in-process: a pool worker
        is SIGKILLed mid-simulation; the inflight dump it wrote *before*
        death is the postmortem, and its correlation id joins the job."""
        flight_dir = tmp_path / "flight"
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        service = CampaignService(
            workers=1, rate=1000.0, burst=1000.0
        ).start()
        try:
            job = service.submit(
                specs=[RunSpec(
                    scheme="disco", workload="x264",
                    accesses_per_core=4000,
                )],
                client="chaos",
            )
            assert isinstance(job, Job)
            # Wait for the worker's first inflight dump, then kill it.
            deadline = time.monotonic() + 60.0
            victim = None
            while victim is None:
                assert time.monotonic() < deadline, (
                    "no inflight flight record appeared"
                )
                for record in flight.read_flight_records(flight_dir):
                    if (
                        record["reason"] == "inflight"
                        and record["pid"] != os.getpid()
                    ):
                        victim = record
                        break
                time.sleep(0.05)
            os.kill(victim["pid"], signal.SIGKILL)
            # The dead worker's record survives and carries the join keys:
            # the job's correlation id and the last sampled cycle.
            survivors = {
                r["pid"]: r for r in flight.read_flight_records(flight_dir)
            }
            record = survivors[victim["pid"]]
            assert record["corr"] == job.correlation
            assert record["extra"]["cycle"] >= 0
            assert record["extra"]["scheme"] == "disco"
            # The service notices the broken pool, dumps its own record,
            # respawns, and the retried unit still completes.
            results = failures = 0
            for event in job.stream(timeout=120.0):
                if event["type"] == "result":
                    results += 1
                elif event["type"] == "failed":
                    failures += 1
                elif event["type"] == "done":
                    break
                elif event["type"] == "timeout":
                    raise AssertionError("job stream timed out")
            assert results == 1 and failures == 0
            assert service.stats.worker_respawns >= 1
            reasons = {
                r["reason"]
                for r in flight.read_flight_records(flight_dir)
            }
            assert "broken_pool" in reasons
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_corrupt_envelopes_of_either_kind_dump_a_flight_record(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import checkpoint

        flight_dir = tmp_path / "flight"
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))
        spec = RunSpec(scheme="baseline", **QUICK)
        run_spec(spec)
        entry = runner._disk_path(spec)
        checkpoint.save_checkpoint("k", 1, {"state": 1})
        ckpt, _ = checkpoint.checkpoint_paths("k")
        for path, load in (
            (entry, lambda: runner._disk_load(spec)),
            (ckpt, lambda: checkpoint.load_checkpoint("k")),
        ):
            path.write_bytes(path.read_bytes()[:-1])  # truncated
            with correlation_scope("c-corrupt"):
                assert load() is None
            [record] = flight.read_flight_records(flight_dir)
            assert record["reason"] == "envelope_quarantine"
            assert record["extra"] == {"path": str(path)}
            assert record["corr"] == "c-corrupt"


# --------------------------------------------------------------------------
# inertness: the plane off and on produce identical physics
# --------------------------------------------------------------------------


class TestInvariance:
    def test_plane_on_off_keeps_golden_digests_and_envelope_bytes(
        self, tmp_path, monkeypatch
    ):
        """With every observability knob ON (flight dir, heartbeats, a
        bound correlation id), all five golden mesh digests and the
        disk-cache envelope *bytes* are identical to the knobs-off run.
        This is the provably-inert guarantee of the whole plane."""
        specs = {
            scheme: RunSpec(
                scheme=scheme, workload="blackscholes",
                accesses_per_core=QUICK_ACCESSES,
            )
            for scheme in GOLDEN_DIGESTS
        }
        # Pass 1: plane off (the _fresh fixture's clean environment).
        envelopes_off = {}
        for scheme, spec in specs.items():
            result = run_spec(spec)
            assert result_digest(result) == GOLDEN_DIGESTS[scheme]
            envelopes_off[scheme] = runner._disk_path(spec).read_bytes()
        # Pass 2: plane on — flight recorder, heartbeats, correlation.
        clear_cache()
        clear_disk_cache()
        flight.reset_for_tests()
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(tmp_path / "hb"))
        for scheme, spec in specs.items():
            with correlation_scope(f"c-invariance-{scheme}"):
                result = runner._simulate(spec)
                runner._store(spec, result, verbose=False)
            assert result_digest(result) == GOLDEN_DIGESTS[scheme], (
                f"observability plane perturbed the {scheme} digest"
            )
            assert (
                runner._disk_path(spec).read_bytes()
                == envelopes_off[scheme]
            ), f"disk-cache envelope of {scheme} differs with the plane on"
        # The plane did actually observe something (it was on, not dead).
        assert flight.read_flight_records(tmp_path / "flight")


# --------------------------------------------------------------------------
# the service endpoints: /metrics, /health/ready, /slo
# --------------------------------------------------------------------------


@pytest.fixture
def http_service():
    service = CampaignService(workers=2, rate=1000.0, burst=1000.0).start()
    server = serve(service, "127.0.0.1", 0)
    port = server.server_address[1]
    try:
        yield service, port
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=10.0)


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return response.status, dict(response.headers), response.read()


def _post_submit(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/submit",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestServiceEndpoints:
    def test_metrics_validate_and_reconcile_with_stats(self, http_service):
        service, port = http_service
        body = _post_submit(
            port,
            {"client": "m", "specs": [
                dict(scheme="baseline", **QUICK),
                dict(scheme="disco", **QUICK),
            ]},
        )
        assert body["correlation"].startswith("c-")
        job = service.jobs[body["job"]]
        for event in job.stream(timeout=60.0):
            if event["type"] in ("done", "timeout"):
                assert event["type"] == "done"
                break
        status, headers, raw = _get(port, "/metrics")
        assert status == 200
        assert "openmetrics-text" in headers["Content-Type"]
        text = raw.decode()
        assert validate_openmetrics(text) == []
        samples = parse_samples(text)
        # Counters reconcile with /stats and the registry snapshot.
        _, _, stats_raw = _get(port, "/stats")
        stats = json.loads(stats_raw)["counters"]
        assert samples["repro_service_units_completed_total"][()] == (
            stats["service"]["units_completed"]
        )
        assert samples["repro_admission_jobs_admitted_total"][()] == (
            stats["admission"]["jobs_admitted"]
        )
        by_scheme = samples["repro_service_units_completed_by_scheme_total"]
        assert by_scheme[(("scheme", "baseline"),)] == 1
        assert by_scheme[(("scheme", "disco"),)] == 1
        outcomes = samples["repro_service_unit_cache_outcomes_total"]
        assert outcomes[(("outcome", "hit"),)] + outcomes[
            (("outcome", "miss"),)
        ] == stats["service"]["units_completed"]
        assert samples["repro_service_queue_age_ms_count"][()] == 2
        assert samples["repro_service_up"][()] == 1
        burn = samples["repro_slo_burn_rate"]
        assert {labels[0][1] for labels in burn} == {
            "queue_age_p95", "shed_rate", "throughput",
        }
        # /slo serves the same objectives as structured JSON.
        _, _, slo_raw = _get(port, "/slo")
        slo = json.loads(slo_raw)["slo"]
        assert {entry["name"] for entry in slo} == {
            "queue_age_p95", "shed_rate", "throughput",
        }

    def test_concurrent_scrapes_are_untorn_and_monotonic(
        self, http_service
    ):
        service, port = http_service
        stop = threading.Event()
        failures = []
        watched = (
            "repro_service_units_completed_total",
            "repro_admission_jobs_admitted_total",
            "repro_service_unit_cache_outcomes_total",
        )

        def scrape_loop():
            last = {}
            while not stop.is_set():
                try:
                    _, _, raw = _get(port, "/metrics")
                    text = raw.decode()
                    errors = validate_openmetrics(text)
                    if errors:
                        failures.append(f"torn exposition: {errors}")
                        return
                    samples = parse_samples(text)
                    for name in watched:
                        for labels, value in samples.get(name, {}).items():
                            key = (name, labels)
                            if key in last and value < last[key]:
                                failures.append(
                                    f"{name}{labels} went backwards: "
                                    f"{last[key]} -> {value}"
                                )
                                return
                            last[key] = value
                except Exception as exc:  # noqa: BLE001 - fail the test
                    failures.append(repr(exc))
                    return

        scrapers = [
            threading.Thread(target=scrape_loop, daemon=True)
            for _ in range(3)
        ]
        for thread in scrapers:
            thread.start()
        jobs = []
        for seed in range(4):
            body = _post_submit(
                port,
                {"client": "scrape", "specs": [
                    dict(scheme="baseline", seed=seed, **QUICK)
                ]},
            )
            jobs.append(service.jobs[body["job"]])
        for job in jobs:
            for event in job.stream(timeout=60.0):
                if event["type"] in ("done", "timeout"):
                    break
        time.sleep(0.2)  # a few post-completion scrapes
        stop.set()
        for thread in scrapers:
            thread.join(timeout=10.0)
        assert failures == []
        assert service.stats.units_completed == 4

    def test_ready_names_every_failing_condition(
        self, tmp_path, monkeypatch
    ):
        # An unstarted service is unready for two reasons, by name.
        service = CampaignService(workers=1, max_queue_depth=2)
        ok, detail = service.ready()
        assert not ok
        assert any("not accepting" in r for r in detail["reasons"])
        assert any("dispatcher threads dead" in r for r in detail["reasons"])
        # Queue at the bound: named with the depth and the bound.
        service._accepting = True
        job = service.submit(
            specs=[RunSpec(scheme="baseline", seed=s, **QUICK)
                   for s in (1, 2)],
            client="fill",
        )
        assert isinstance(job, Job)
        ok, detail = service.ready()
        assert any("queue depth 2 at/over bound 2" in r
                   for r in detail["reasons"])
        # A stale heartbeat file: named with the pid and its age.
        hb_dir = tmp_path / "hb"
        hb_dir.mkdir()
        stale = hb_dir / "hb_99999.json"
        stale.write_text('{"pid": 99999}')
        old = time.time() - 300.0
        os.utime(stale, (old, old))
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "5")
        ok, detail = service.ready()
        assert not ok
        assert any("stale heartbeat pids: 99999" in r
                   for r in detail["reasons"])
        assert detail["heartbeats"]["workers"] == 1
        # SLO statuses ride along but never block readiness by themselves.
        assert {entry["name"] for entry in detail["slo"]} == {
            "queue_age_p95", "shed_rate", "throughput",
        }

    def test_disabled_watchdog_keeps_the_default_heartbeat_budget(
        self, tmp_path, monkeypatch
    ):
        """``REPRO_WATCHDOG_SECONDS=0`` means no watchdog, as it does for
        the runner, so readiness keeps its 60s staleness budget: a live
        worker's 5-second-old heartbeat is not stale."""
        service = CampaignService(
            workers=1, rate=1000.0, burst=1000.0
        ).start()
        try:
            hb_dir = tmp_path / "hb"
            hb_dir.mkdir()
            beat = hb_dir / f"hb_{os.getpid()}.json"
            beat.write_text(json.dumps({"pid": os.getpid(), "cycle": 1}))
            old = time.time() - 5.0
            os.utime(beat, (old, old))
            monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
            monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "0")
            ok, detail = service.ready()
            assert ok, detail["reasons"]
            assert detail["heartbeats"]["workers"] == 1
            assert runner.watchdog_seconds() is None
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_burning_slo_publishes_stream_events(self):
        slo = SLOSpec(
            name="shed_rate", metric="shed", objective=0.001,
            kind="rate_max", window=60.0,
        )
        service = CampaignService(workers=1, slos=[slo])
        service._accepting = True
        job = service.submit(
            specs=[RunSpec(scheme="baseline", **QUICK)], client="slo"
        )
        assert isinstance(job, Job)
        _shed(service.events)  # 1/60s >> 0.001/s objective
        statuses = service.evaluate_slos(publish=True)
        assert [s.name for s in statuses] == ["shed_rate"]
        assert not statuses[0].ok
        events = [
            event for event in job.stream(timeout=1.0, poll=0.05)
            if event["type"] == "slo_burn"
        ]
        assert events and events[0]["name"] == "shed_rate"
        assert events[0]["burn_rate"] > 1.0
        # Registry exposition mirrors the burn.
        registry = build_service_registry(service)
        samples = parse_samples(registry.render())
        assert samples["repro_slo_ok"][(("slo", "shed_rate"),)] == 0
