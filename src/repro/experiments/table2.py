"""Table 2 — baseline system parameters.

The configuration is encoded in :class:`repro.cmp.config.SystemConfig` and
:class:`repro.noc.config.NocConfig`; this module renders it in the paper's
row format and asserts the paper's values hold for ``SystemConfig.table2()``
(the experiments then use the documented scaled variants).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cmp.config import SystemConfig
from repro.experiments.report import format_table


def table2_rows(config: SystemConfig = None) -> List[Tuple[str, str]]:
    config = config or SystemConfig.table2()
    noc = config.noc
    l1_kb = config.l1_sets * config.l1_ways * config.line_size // 1024
    llc_mb = config.llc_capacity_bytes / (1024 * 1024)
    return [
        ("Processor core",
         f"{config.n_cores} cores, trace-driven, {config.core_window} "
         f"outstanding misses, {l1_kb}KB {config.l1_ways}-way D-cache"),
        ("NoC topology",
         f"{noc.width}x{noc.height} mesh, XY routing"),
        ("Router",
         f"3 pipeline stages, {noc.flow_control.value} flow control, "
         f"{noc.vc_depth}-flit buffers, {noc.vcs_per_port} VCs, "
         f"{8 * noc.flit_bytes}-bit flits"),
        ("Coherence", "MSI directory (MOESI simplified; DESIGN.md)"),
        ("L2 cache",
         f"shared NUCA, {config.l2_ways}-way, {config.line_size}B lines, "
         f"{config.n_banks} banks, LRU, {config.l2_hit_latency}-cycle hit, "
         f"{llc_mb:g}MB total"),
        ("Memory",
         f"{config.memory_banks} DRAM banks, "
         f"{config.memory_latency}-cycle access, 1 channel"),
        ("DISCO",
         "non-blocking compression, delta-based, 1-cycle compression, "
         "3-cycle decompression"),
    ]


def verify_table2() -> List[str]:
    """Check the full-scale defaults against the paper's Table 2."""
    config = SystemConfig.table2()
    noc = config.noc
    problems = []
    if config.n_cores != 16:
        problems.append(f"expected 16 cores, got {config.n_cores}")
    if (noc.width, noc.height) != (4, 4):
        problems.append("expected a 4x4 mesh")
    if noc.vc_depth != 8 or noc.vcs_per_port != 2:
        problems.append("expected 8-flit buffers and 2 VCs")
    if config.l2_ways != 8 or config.line_size != 64:
        problems.append("expected 8-way 64B-line L2")
    if config.llc_capacity_bytes != 4 * 1024 * 1024:
        problems.append(
            f"expected 4MB NUCA, got {config.llc_capacity_bytes}"
        )
    if config.l2_hit_latency != 4:
        problems.append("expected 4-cycle bank hit")
    if config.memory_banks != 8:
        problems.append("expected 8 DRAM banks")
    return problems


def render(config: SystemConfig = None) -> str:
    return format_table(
        ["parameter", "value"],
        table2_rows(config),
        title="Table 2: baseline system parameters",
    )
