"""Which end-to-end metric, on which workloads, each per-layer metric
should move.

``BENCHMARK.json`` gives a per-layer metric only its name, unit and
direction, so the map lives here.  A traced run prints it beside each
value, and the ledger's tests check that it covers exactly the declared
per-layer metrics.  Workloads are listed from the one a change in the
layer should move most.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: The declared throughput metric every workload reports.
THROUGHPUT = "accesses_per_ref_s"


class Target(NamedTuple):
    metrics: Tuple[str, ...]
    workloads: Tuple[str, ...]


def _codec(names: Tuple[str, ...]) -> Tuple[str, ...]:
    return tuple(f"compression.{name}.{op}_us" for name in names
                 for op in ("compress", "decompress"))


_GROUPS = (
    (("sim.step_self_us", "sim.cycles", "sim.noop_wake_ns",
      "sim.idle_step_ns"),
     Target((THROUGHPUT, "wall_s"), ("sparse-16x16", "fig5-cold"))),
    (("noc.router_tick_us", "noc.router_ticks", "noc.ni_tick_us",
      "noc.ni_ticks", "noc.arrival_tick_us", "noc.send_us",
      "noc.ns_per_link_flit"),
     Target((THROUGHPUT, "wall_s"),
            ("fig5-cold", "fig6-algos", "sparse-16x16"))),
    (("core.disco_router_tick_us", "core.engine_tick_us",
      "core.engine_start_us", "core.engine_jobs"),
     Target((THROUGHPUT, "wall_s"), ("fig5-cold", "fig6-algos"))),
    (_codec(("delta", "bdi")) + ("compression.memo_hit_us",),
     Target((THROUGHPUT, "wall_s"), ("fig5-cold",))),
    (_codec(("fpc", "sc2")),
     Target((THROUGHPUT, "wall_s"), ("fig6-algos",))),
    # On no workload's path: report only.
    (_codec(("cpack", "fvc", "sfpc", "zero")), Target((), ())),
    (("compression.memo_hit_ratio",),
     Target((THROUGHPUT, "wall_s"), ("fig5-cold", "fig6-algos"))),
    (("cache.l1_access_ns", "cache.bank_lookup_ns"),
     Target((THROUGHPUT, "wall_s"), ("fig5-cold",))),
    (("cmp.build_ms", "cmp.tile_tick_us", "cmp.bank_handle_us"),
     Target((THROUGHPUT, "wall_s", "unit_latency_p50_ms"),
            ("sparse-16x16", "service-closed"))),
    (("workloads.trace_gen_ms", "workloads.value_line_us"),
     Target((THROUGHPUT, "unit_latency_p50_ms", "wall_s"),
            ("service-closed", "sparse-16x16"))),
    (("runner.spec_overhead_ms",),
     Target(("units_per_s", "wall_s"), ("service-closed", "fig5-cold"))),
    (("runner.disk_hit_ms",),
     Target(("units_per_s", "unit_latency_p50_ms"), ("service-closed",))),
    (("runner.parallel_efficiency",),
     Target(("wall_s", THROUGHPUT), ("fig5-cold",))),
    (("service.admit_us", "service.cached_roundtrip_ms",
      "service.metrics_scrape_ms"),
     Target(("units_per_s", "unit_latency_p50_ms", "unit_latency_p95_ms"),
            ("service-closed",))),
    # It prices the tracing itself.
    (("trace_overhead_pct",), Target((), ())),
)

TARGETS: Dict[str, Target] = {
    name: target for names, target in _GROUPS for name in names
}


def describe(name: str) -> str:
    target = TARGETS[name]
    if not target.metrics:
        return "report only"
    return f"{', '.join(target.metrics)} on {', '.join(target.workloads)}"
