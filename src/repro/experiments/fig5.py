"""Fig. 5 — on-chip data access latency with delta compression.

CC / CNC / DISCO (plus the no-compression baseline for context) across the
PARSEC-like workloads, normalized per workload to the *ideal* system —
"the same system with cache compression but without the de/compression
overhead" (§4.2).  Its claims are the ``fig5.*`` rows of
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.report import Grid, Panels, run_grids
from repro.experiments.runner import DEFAULT_WORKLOADS, FIGURE_ACCESSES

SCHEMES = ("baseline", "cc", "cnc", "disco")
REFERENCE = "ideal"


def panels(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithms: Sequence[str] = ("delta",),
    accesses_per_core: int = FIGURE_ACCESSES,
) -> Panels:
    """One panel per algorithm, a row per workload (Figs. 5-7)."""
    return {
        algorithm: {
            workload: dict(workload=workload, algorithm=algorithm,
                           accesses_per_core=accesses_per_core)
            for workload in workloads
        }
        for algorithm in algorithms
    }


def fig5(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = FIGURE_ACCESSES,
    schemes: Sequence[str] = SCHEMES,
    verbose: bool = False,
) -> Grid:
    return run_grids(panels(workloads, (algorithm,), accesses_per_core),
                     schemes, REFERENCE, verbose=verbose)[algorithm]


def render(result: Grid) -> str:
    from repro.experiments.claims import paper  # claims imports this module

    algorithm = result.results[result.rows[0], REFERENCE].algorithm
    text = result.table(
        f"Fig. 5: normalized avg data-access latency "
        f"({algorithm} compression; ideal = 1.0)"
    )
    if "disco" in result.average and "cc" in result.average:
        text += (
            f"\nDISCO vs CC:  {100 * result.gain('disco', 'cc'):+.1f}% "
            f"(paper: {paper('fig5.disco_vs_cc')})"
        )
    if "disco" in result.average and "cnc" in result.average:
        text += (
            f"\nDISCO vs CNC: {100 * result.gain('disco', 'cnc'):+.1f}% "
            f"(paper: {paper('fig5.disco_vs_cnc')})"
        )
    return text
