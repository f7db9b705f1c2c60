"""Ablation — the DISCO mechanisms DESIGN.md calls out, one off at a time.

Not a paper figure.  On dedup, each variant drops one mechanism: the §3.2
confidence thresholds, §3.3-B coordinated scheduling, or the non-blocking
shadow packets of §3.2 step 3.  The variants change
:class:`~repro.core.DiscoConfig` and the network's packet priority, which
no :class:`RunSpec` field carries, so they run outside the runner.
"""

from __future__ import annotations

from typing import Dict

from repro.cmp import CmpSystem, SystemConfig, make_scheme
from repro.cmp.system import SimulationResult
from repro.core import DiscoConfig
from repro.core.scheduling import baseline_priority
from repro.experiments.report import format_table
from repro.workloads import generate_traces, get_profile

WORKLOAD = "dedup"

#: Each variant's DiscoConfig and packet priority (None: the default).
VARIANTS = {
    "disco (full)": (None, None),
    "hasty (thresholds off)": (
        DiscoConfig(cc_threshold=-10.0, cd_threshold=-10.0, beta=0.0), None
    ),
    "no scheduling policy": (None, baseline_priority),
    "blocking engine": (DiscoConfig(non_blocking=False), None),
}


def ablation(accesses_per_core: int) -> Dict[str, SimulationResult]:
    """Full DISCO and each variant on dedup, keyed by variant name."""
    config = SystemConfig.scaled_4x4()
    results = {}
    for name, (disco, priority) in VARIANTS.items():
        traces = generate_traces(
            get_profile(WORKLOAD), config.n_cores, accesses_per_core, seed=7
        )
        system = CmpSystem(config, make_scheme("disco", disco=disco), traces,
                           warmup_fraction=0.4)
        if priority is not None:
            system.network.packet_priority = priority
        results[name] = system.run()
    return results


def render(variants: Dict[str, SimulationResult]) -> str:
    rows = [
        [name, result.avg_miss_latency,
         result.counters_measured["router_compressions"],
         result.counters_measured["router_decompressions"],
         result.network.aborted_jobs]
        for name, result in variants.items()
    ]
    return format_table(
        ["variant", "miss latency", "rcomp", "rdec", "aborts"], rows,
        title=f"DISCO ablation on {WORKLOAD}",
    )
