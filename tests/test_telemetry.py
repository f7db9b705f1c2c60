"""The observability layer: sampler, tracer, exporters, profiler, logger.

The load-bearing contracts:

- **off-invariance** — with every telemetry knob off, nothing is
  registered and results are bit-identical to a pre-telemetry run (the
  golden-mesh digests enforce the absolute baseline; here we check that
  turning telemetry *on* changes only the ``telemetry`` stat group);
- **span accounting** — at sampling rate 1, the number of packet spans
  reconstructed from the trace equals ``packets_ejected``;
- **bounded memory** — the tracer's event cap and the sampler's window
  ring are hard bounds, with overflow counted rather than stored.
"""

import json
import logging

import pytest

from repro.experiments.report import render_heatmap, render_histogram
from repro.experiments.runner import QUICK_ACCESSES, RunSpec, run_spec, run_specs
from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.sim.kernel import SimKernel
from repro.telemetry.check import main as check_main
from repro.telemetry.check import summarize, validate_chrome_trace
from repro.telemetry.export import (
    latency_histogram,
    lost_packets,
    node_hop_counts,
    packet_spans,
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.log import (
    ensure_level,
    get_logger,
    level_from_env,
    reset_for_tests,
)
from repro.telemetry.profiler import (
    merge_profiles,
    profile_from_kernel,
    render_profile,
    write_profile,
)
from repro.telemetry.sampler import TimeSeriesSampler
from repro.telemetry.tracer import PacketTracer

LINE = bytes(range(64))


def data_packet(src=0, dst=15, line=LINE):
    return Packet(
        PacketType.RESPONSE, src, dst, line=line,
        compressible=True, decompress_at_dst=False,
    )


def traced_network(**overrides):
    overrides.setdefault("trace_packets", True)
    network = Network(NocConfig(**overrides))
    delivered = []
    network.set_delivery_handler(lambda node, p: delivered.append(p))
    return network, delivered


def run_traffic(network, n_packets=24):
    n = network.config.n_nodes
    for i in range(n_packets):
        network.send(data_packet(src=(i * 3) % n, dst=(i * 7 + 1) % n))
    network.run_until_quiescent(max_cycles=100_000)


# -- tracer ------------------------------------------------------------------
class TestPacketTracer:
    def test_rate_one_packet_spans_equal_ejections(self):
        network, delivered = traced_network()
        run_traffic(network)
        assert delivered
        spans = packet_spans(network.tracer.events)
        assert len(spans) == network.stats.packets_ejected
        assert not lost_packets(network.tracer.events)
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["latency"] == span["end"] - span["start"]

    def test_sampling_rate_selects_every_nth_injection(self):
        tracer = PacketTracer(sample_interval=3)
        packets = [data_packet() for _ in range(9)]
        for packet in packets:
            tracer.on_inject(0, packet, packet.src)
        traced = [p for p in packets if tracer.wants(p.pid)]
        assert len(traced) == 3  # injections 0, 3, 6
        assert tracer.stats.packets_traced == 3
        assert len(tracer.events) == 3  # only sampled injects recorded

    def test_sampled_network_traces_subset_with_full_lifecycles(self):
        network, _ = traced_network(trace_sample_interval=4)
        run_traffic(network, n_packets=24)
        tracer = network.tracer
        assert tracer.stats.packets_traced == 6
        spans = packet_spans(tracer.events)
        # Every traced packet's lifecycle closes with an eject.
        assert len(spans) == tracer.stats.packets_traced
        assert not lost_packets(tracer.events)

    def test_retransmission_clone_inherits_sampling_decision(self):
        tracer = PacketTracer(sample_interval=2)
        first, second = data_packet(), data_packet()
        tracer.on_inject(0, first, 0)   # injection 0 -> traced
        tracer.on_inject(0, second, 0)  # injection 1 -> skipped
        assert tracer.wants(first.pid) and not tracer.wants(second.pid)
        # A retransmitted clone shares the pid; re-injecting it neither
        # flips the decision nor burns another sampling slot.
        tracer.on_inject(10, first, 0)
        tracer.on_inject(10, second, 0)
        assert tracer.wants(first.pid) and not tracer.wants(second.pid)
        assert tracer.stats.packets_traced == 1

    def test_event_cap_drops_and_counts_overflow(self):
        tracer = PacketTracer(event_cap=5)
        packet = data_packet()
        tracer.on_inject(0, packet, 0)
        for cycle in range(10):
            tracer.on_hop(cycle, packet, 0, 0, 0)
        assert len(tracer.events) == 5
        assert tracer.truncated
        assert tracer.dropped == 6
        assert tracer.stats.trace_events_dropped == 6
        assert tracer.stats.trace_events == 5

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            PacketTracer(sample_interval=0)
        with pytest.raises(ValueError):
            PacketTracer(event_cap=0)
        with pytest.raises(ValueError):
            NocConfig(trace_sample_interval=0)
        with pytest.raises(ValueError):
            NocConfig(stats_interval=-1)


# -- sampler -----------------------------------------------------------------
class TestTimeSeriesSampler:
    def make(self, interval=4, capacity=3):
        kernel = SimKernel()
        counters = {"ticks": 0}
        kernel.stats.register("fake", lambda: dict(counters))
        sampler = TimeSeriesSampler(kernel, interval, capacity=capacity)
        return kernel, counters, sampler

    def test_windows_hold_deltas_not_totals(self):
        kernel, counters, sampler = self.make()
        for cycle in range(1, 13):
            counters["ticks"] += 2
            sampler.tick(cycle)
        windows = sampler.windows()
        assert [w.end_cycle for w in windows] == [4, 8, 12]
        assert all(w.delta["fake"]["ticks"] == 8 for w in windows)
        assert [
            (row["end_cycle"], row["counters"]["fake"]["ticks"])
            for row in sampler.to_dicts()
        ] == [(4, 8), (8, 8), (12, 8)]
        assert [
            (w.end_cycle, w.delta["fake"]["ticks"] / (w.end_cycle - w.start_cycle))
            for w in windows
        ] == [(4, 2.0), (8, 2.0), (12, 2.0)]

    def test_ring_buffer_evicts_oldest_and_counts(self):
        kernel, counters, sampler = self.make(interval=1, capacity=3)
        for cycle in range(1, 8):
            sampler.tick(cycle)
        windows = sampler.windows()
        assert len(windows) == 3
        assert [w.index for w in windows] == [4, 5, 6]  # monotonic survives
        assert sampler.stats.windows_evicted == 4
        assert sampler.stats.windows_sampled == 7

    def test_gauges_sampled_at_boundaries(self):
        kernel, counters, sampler = self.make(interval=2)
        reading = {"value": 0.0}
        sampler.add_gauge("occupancy", lambda: reading["value"])
        with pytest.raises(ValueError):
            sampler.add_gauge("occupancy", lambda: 0.0)
        for cycle in range(1, 7):
            reading["value"] = float(cycle)
            sampler.tick(cycle)
        assert [
            (row["end_cycle"], row["gauges"]["occupancy"])
            for row in sampler.to_dicts()
        ] == [(2, 2.0), (4, 4.0), (6, 6.0)]

    def test_validation(self):
        kernel = SimKernel()
        with pytest.raises(ValueError):
            TimeSeriesSampler(kernel, 0)
        with pytest.raises(ValueError):
            TimeSeriesSampler(kernel, 1, capacity=0)


# -- off-invariance ----------------------------------------------------------
class TestTelemetryOffInvariance:
    def test_telemetry_changes_only_the_telemetry_group(self):
        base_spec = RunSpec(
            scheme="disco", workload="blackscholes",
            accesses_per_core=QUICK_ACCESSES,
        )
        telemetry_spec = RunSpec(
            scheme="disco", workload="blackscholes",
            accesses_per_core=QUICK_ACCESSES,
            stats_interval=64, trace_packets=True,
        )
        off = run_spec(base_spec)
        on = run_spec(telemetry_spec)
        assert off.cycles == on.cycles
        assert off.avg_miss_latency == on.avg_miss_latency
        off_groups = off.snapshot_full.to_dict()
        on_groups = on.snapshot_full.to_dict()
        assert "telemetry" not in off_groups
        assert "kernel" not in off_groups
        assert on_groups.pop("telemetry")["trace_events"] > 0
        # The kernel idle-efficiency group rides the telemetry gate; its
        # counters are scheduler-dependent, not simulation-dependent.
        kernel_group = on_groups.pop("kernel")
        # stepped cycles <= simulated cycles (fast-forward jumps the clock)
        assert 0 < kernel_group["cycles_total"] <= on.cycles
        assert kernel_group["component_wakes"] > 0
        assert on_groups == off_groups
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.telemetry["windows"]
        assert on.telemetry["trace"]["events"]

    def test_network_off_registers_nothing(self):
        network = Network(NocConfig())
        assert network.tracer is None and network.sampler is None
        assert "telemetry" not in network.kernel.stats.groups()
        assert "telemetry.sample" not in network.kernel.phases()


# -- exporters ---------------------------------------------------------------
class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self):
        network, delivered = traced_network(stats_interval=16)
        run_traffic(network)
        return network

    def test_chrome_trace_is_schema_valid(self, traced):
        trace = to_chrome_trace(traced.tracer.events)
        assert validate_chrome_trace(trace) == []
        summary = summarize(trace)
        assert summary["packet_spans"] == traced.stats.packets_ejected
        assert summary["by_cat"]["hop"] > 0

    def test_check_module_cli_roundtrip(self, traced, tmp_path, capsys):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), traced.tracer.events)
        assert check_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        path.write_text('{"traceEvents": [{"ph": "X", "pid": 1}]}')
        assert check_main([str(path)]) == 1
        assert check_main([]) == 2

    def test_validator_rejects_malformed_events(self):
        assert validate_chrome_trace({"traceEvents": []})
        bad_span = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0, "dur": 0},
        ]}
        assert any("dur" in e for e in validate_chrome_trace(bad_span))
        bad_meta = {"traceEvents": [
            {"ph": "M", "pid": 1, "name": "nope", "args": {"name": "x"}},
        ]}
        assert any("metadata" in e for e in validate_chrome_trace(bad_meta))

    def test_jsonl_streams_every_event(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(str(path), traced.tracer.events)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(traced.tracer.events)
        first = json.loads(lines[0])
        assert first["kind"] == "inject"
        assert set(first) == {"cycle", "kind", "pid", "node", "info"}

    def test_summary_heatmap_and_histogram(self, traced):
        events = traced.tracer.events
        summary = summarize_trace(events)
        assert summary["packet_spans"] == traced.stats.packets_ejected
        assert summary["mean_latency"] > 0
        counts = node_hop_counts(events)
        heatmap = render_heatmap(counts, 4, 4, title="hops")
        assert heatmap.startswith("hops\n")
        assert f"(total {sum(counts.values())}" in heatmap
        rows = latency_histogram(events)
        assert sum(count for _, count in rows) == len(packet_spans(events))
        histogram = render_histogram(rows, title="latency")
        assert "#" in histogram and "latency" in histogram

    def test_heatmap_validation(self):
        with pytest.raises(ValueError):
            render_heatmap({}, 0, 4)


# -- profiler ----------------------------------------------------------------
class TestRunProfiler:
    def test_profile_ranks_components_by_wall_clock(self):
        network, _ = traced_network(trace_packets=False)
        network.kernel.enable_timing()
        run_traffic(network)
        profile = profile_from_kernel(network.kernel, wall_seconds=1.0)
        top = profile.top_components()
        assert top
        seconds = [row["seconds"] for row in top]
        assert seconds == sorted(seconds, reverse=True)
        assert any(row["component"] == "Router" for row in top)
        assert abs(sum(row["share"] for row in top) - 1.0) < 1e-6
        text = render_profile(profile)
        assert "Router" in text

    def test_merge_and_write(self, tmp_path):
        kernel = SimKernel()
        kernel.component_seconds[("p", "A")] = 0.25
        kernel.component_ticks[("p", "A")] = 5
        kernel.phase_seconds["p"] = 0.25
        kernel.phase_ticks["p"] = 5
        one = profile_from_kernel(kernel, wall_seconds=0.5, cycles=10)
        merged = merge_profiles([one, one])
        assert merged.runs == 2
        assert merged.cycles == 20
        assert merged.component_seconds[("p", "A")] == 0.5
        assert merge_profiles([]) is None
        path = tmp_path / "profile.json"
        payload = write_profile(str(path), merged)
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["runs"] == 2
        assert on_disk["top_components"][0]["component"] == "A"

    def test_runner_emits_profile_json(self, tmp_path):
        spec = RunSpec(
            scheme="baseline", workload="blackscholes",
            accesses_per_core=QUICK_ACCESSES, profile_run=True,
        )
        out = tmp_path / "profile.json"
        results = run_specs([spec], profile_out=str(out))
        result = results[spec]
        assert result.profile is not None
        assert result.profile.runs == 1
        payload = json.loads(out.read_text())
        assert payload["top_components"]
        assert payload["wall_seconds"] >= 0

    def test_unprofiled_run_carries_no_profile(self):
        spec = RunSpec(
            scheme="baseline", workload="blackscholes",
            accesses_per_core=QUICK_ACCESSES,
        )
        assert run_spec(spec).profile is None


# -- kernel describe ---------------------------------------------------------
class TestDescribe:
    def test_describe_reports_telemetry_state(self):
        network, _ = traced_network(stats_interval=8)
        text = network.kernel.describe()
        assert "telemetry.sampler: every 8 cycles" in text
        assert "telemetry.tracer: 1/1 packets" in text
        assert "telemetry.sample: 1 components" in text
        assert "timing=off" in text
        network.kernel.enable_timing()
        assert "timing=on" in network.kernel.describe()

    def test_busy_components_order_is_deterministic(self):
        network, _ = traced_network(stats_interval=8)
        network.send(data_packet())
        first = network.kernel.busy_components()
        second = network.kernel.busy_components()
        assert first == second
        phases = [phase for phase, _ in first]
        order = list(network.kernel.phases())
        active = [p for p in phases if p in order]
        assert active == sorted(active, key=order.index)


# -- logger ------------------------------------------------------------------
class TestLogger:
    @pytest.fixture(autouse=True)
    def clean_logging(self):
        reset_for_tests()
        yield
        reset_for_tests()

    def test_level_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert level_from_env() == logging.WARNING
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        assert level_from_env() == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG_LEVEL", "15")
        assert level_from_env() == 15
        monkeypatch.setenv("REPRO_LOG_LEVEL", "bogus")
        assert level_from_env() == logging.WARNING

    def test_logger_tree_and_format(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "INFO")
        logger = get_logger("repro.runner")
        logger.info("[abc123] running")
        err = capsys.readouterr().err
        assert "repro.runner INFO corr=- [abc123] running" in err

    def test_ensure_level_only_lowers(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        root = get_logger()
        ensure_level(logging.INFO)
        assert root.level == logging.DEBUG  # explicit DEBUG survives
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        reset_for_tests()
        root = get_logger()
        ensure_level(logging.INFO)
        assert root.level == logging.INFO
