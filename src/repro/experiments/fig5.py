"""Fig. 5 — on-chip data access latency with delta compression.

CC / CNC / DISCO (plus the no-compression baseline for context) across the
PARSEC-like workloads, normalized per workload to the *ideal* system —
"the same system with cache compression but without the de/compression
overhead" (§4.2).  The paper reports DISCO beating CC by ~12 % and CNC by
~10.1 % on average.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.report import Grid, run_grids
from repro.experiments.runner import DEFAULT_WORKLOADS, FIGURE_ACCESSES

SCHEMES = ("baseline", "cc", "cnc", "disco")
REFERENCE = "ideal"


def panel(
    workloads: Sequence[str], algorithm: str, accesses_per_core: int
) -> Dict[str, Dict[str, object]]:
    """One algorithm's rows, a workload each (Figs. 5-7)."""
    return {
        workload: dict(
            workload=workload,
            algorithm=algorithm,
            accesses_per_core=accesses_per_core,
        )
        for workload in workloads
    }


def fig5(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = FIGURE_ACCESSES,
    schemes: Sequence[str] = SCHEMES,
    verbose: bool = False,
) -> Grid:
    panels = {algorithm: panel(workloads, algorithm, accesses_per_core)}
    return run_grids(panels, schemes, REFERENCE, verbose=verbose)[algorithm]


def render(result: Optional[Grid] = None, **kwargs) -> str:
    result = result or fig5(**kwargs)
    algorithm = result.results[result.rows[0], REFERENCE].algorithm
    text = result.table(
        f"Fig. 5: normalized avg data-access latency "
        f"({algorithm} compression; ideal = 1.0)"
    )
    if "disco" in result.average and "cc" in result.average:
        text += (
            f"\nDISCO vs CC:  {100 * result.gain('disco', 'cc'):+.1f}% "
            f"(paper: ~12%)"
        )
    if "disco" in result.average and "cnc" in result.average:
        text += (
            f"\nDISCO vs CNC: {100 * result.gain('disco', 'cnc'):+.1f}% "
            f"(paper: ~10.1%)"
        )
    return text


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
