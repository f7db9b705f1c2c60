#!/usr/bin/env python3
"""Telemetry worked example: trace a faulty torus run end to end.

Builds a 4x4 torus of DISCO routers with the NI retransmission layer on
and a deterministic fault plan injecting NI drops and payload corruption,
then turns on every observability knob at once:

- per-packet lifecycle tracing (inject → RC/VA/SA/ST per hop → engine
  events → eject, plus retransmit/CRC-reject/duplicate instants),
- the time-series stats sampler (windowed counter deltas),
- per-component kernel profiling.

The run writes three artifacts to the output directory (first CLI arg,
default ``telemetry_out/``):

- ``trace.json``  — Chrome trace-event JSON; open it at
  https://ui.perfetto.dev (one track per packet, router and engine),
- ``trace.jsonl`` — the raw event stream, one JSON object per line,
- ``profile.json`` — wall-clock attribution per kernel component.

It also prints the trace summary, a per-router hop heatmap, the packet
latency histogram and the kernel schedule, so the terminal alone shows
where the traffic went and what the faults did.

Run:  PYTHONPATH=src python examples/telemetry_demo.py [out_dir]

The CI telemetry-smoke job runs exactly this and then validates the trace
with ``python -m repro.telemetry.check telemetry_out/trace.json``.
"""

import os
import sys

from repro.compression.registry import get_timing
from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.experiments.report import render_heatmap, render_histogram
from repro.faults import FaultController, FaultPlan
from repro.noc import Network, NocConfig
from repro.noc.flit import Packet, PacketType
from repro.telemetry.export import (
    latency_histogram,
    node_hop_counts,
    summarize_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.profiler import (
    profile_from_kernel,
    render_profile,
    write_profile,
)

WIDTH = HEIGHT = 4
PACKETS = 48
LINE = bytes(range(64))


def build_network() -> Network:
    config = NocConfig(
        topology="torus",
        width=WIDTH,
        height=HEIGHT,
        vcs_per_vnet=2,  # dateline escape VCs for the torus
        retransmission=True,
        retx_timeout=256,
        stats_interval=32,
        trace_packets=True,
        trace_sample_interval=1,
    )
    network = Network(
        config, router_factory=make_disco_router_factory(DiscoConfig())
    )
    network.packet_priority = disco_priority
    decomp = get_timing("delta").decompression_cycles

    def eject(node, packet):
        if packet.is_compressed and packet.decompress_at_dst:
            packet.apply_decompression()
            network.stats.ni_decompressions += 1
            return decomp
        return 0

    network.eject_transform = eject
    network.attach_faults(
        FaultController(
            FaultPlan(seed=5, drop_rate=0.05, payload_rate=0.002),
            raise_on_violation=False,
        )
    )
    network.kernel.enable_timing()
    return network


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "telemetry_out"
    os.makedirs(out_dir, exist_ok=True)

    network = build_network()
    delivered = []
    network.set_delivery_handler(lambda node, p: delivered.append(p))
    n = network.config.n_nodes
    for i in range(PACKETS):
        network.send(
            Packet(
                PacketType.RESPONSE,
                src=(i * 5) % n,
                dst=(i * 11 + 3) % n,
                line=LINE,
                compressible=True,
                decompress_at_dst=True,
            )
        )
    cycles = network.run_until_quiescent(max_cycles=200_000)

    tracer, sampler = network.tracer, network.sampler
    assert tracer is not None and sampler is not None
    trace_path = os.path.join(out_dir, "trace.json")
    write_chrome_trace(trace_path, tracer.events, label="telemetry demo")
    write_jsonl(os.path.join(out_dir, "trace.jsonl"), tracer.events)
    profile = profile_from_kernel(network.kernel, cycles=cycles)
    write_profile(os.path.join(out_dir, "profile.json"), profile)

    summary = summarize_trace(tracer.events)
    print(f"ran {cycles} cycles: {len(delivered)} delivered, "
          f"{network.recovered.retransmissions} retransmissions, "
          f"{network.recovered.crc_rejections} CRC rejections")
    print(f"trace: {summary['events']} events, "
          f"{summary['packet_spans']} packet spans, "
          f"mean latency {summary['mean_latency']:.1f} cycles")
    print(f"sampler: {len(sampler.windows())} windows of "
          f"{sampler.interval} cycles")
    print()
    print(render_heatmap(
        node_hop_counts(tracer.events), WIDTH, HEIGHT,
        title="hop events per router (torus, row-major)",
    ))
    print()
    print(render_histogram(
        latency_histogram(tracer.events),
        title="packet latency histogram (cycles)",
    ))
    print()
    print(render_profile(profile))
    print()
    print(network.kernel.describe())
    print(f"\nartifacts in {out_dir}/: trace.json (open at "
          "https://ui.perfetto.dev), trace.jsonl, profile.json")


if __name__ == "__main__":
    main()
