"""§4.3 — hardware overhead estimation.

Structural area model of the DISCO router additions (compressor +
arbitrator) versus the baseline 3-stage 64-bit router and the 4 MB NUCA
cache, and versus CNC's compressors (the ``overhead.*`` claims rows).
:func:`repro.energy.area.overhead_report` computes it for the paper's
setup: delta, the Table 2 router, a 4 MB cache over 16 tiles.
"""

from __future__ import annotations

from repro.energy.area import AreaReport
from repro.experiments.report import format_table


def render(report: AreaReport) -> str:
    from repro.experiments.claims import paper  # claims imports this module

    rows = [
        ["baseline router", f"{report.router_um2:,.0f} um^2"],
        ["DISCO compressor", f"{report.compressor_um2:,.0f} um^2"],
        ["DISCO arbitrator", f"{report.arbitrator_um2:,.0f} um^2"],
        ["4MB NUCA cache", f"{report.cache_um2 / 1e6:,.2f} mm^2"],
        ["router overhead",
         f"{100 * report.router_overhead:.1f}%  "
         f"(paper: {paper('overhead.router')})"],
        ["cache overhead (16 tiles)",
         f"{100 * report.cache_overhead:.2f}%  "
         f"(paper: {paper('overhead.cache')})"],
        ["DISCO / CNC compressor area",
         f"{100 * report.disco_vs_cnc_area:.0f}%  "
         f"(paper: {paper('overhead.area_vs_cnc')})"],
    ]
    return format_table(
        ["quantity", "value"],
        rows,
        title="Sec 4.3: DISCO hardware overhead (structural model, 45nm)",
    )
