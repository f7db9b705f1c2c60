"""Fig. 5 — on-chip data access latency with delta compression.

CC / CNC / DISCO (plus the no-compression baseline for context) across the
PARSEC-like workloads, normalized per workload to the *ideal* system —
"the same system with cache compression but without the de/compression
overhead" (§4.2).  The paper reports DISCO beating CC by ~12 % and CNC by
~10.1 % on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import format_table, geomean, normalize
from repro.experiments.runner import (
    DEFAULT_WORKLOADS,
    FIGURE_ACCESSES,
    RunSpec,
    run_specs,
)

SCHEMES = ("baseline", "cc", "cnc", "disco")
REFERENCE = "ideal"


@dataclass
class Fig5Result:
    """Normalized latency per (workload, scheme) plus aggregates."""

    algorithm: str
    workloads: List[str]
    normalized: Dict[str, Dict[str, float]]  # workload -> scheme -> value
    average: Dict[str, float]  # scheme -> geomean

    def improvement_of_disco_over(self, other: str) -> float:
        """Fractional latency reduction of DISCO vs another scheme."""
        return 1.0 - self.average["disco"] / self.average[other]


def fig5(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = FIGURE_ACCESSES,
    schemes: Sequence[str] = SCHEMES,
    verbose: bool = False,
) -> Fig5Result:
    grid = {
        (workload, scheme): RunSpec(
            scheme=scheme,
            workload=workload,
            algorithm=algorithm,
            accesses_per_core=accesses_per_core,
        )
        for workload in workloads
        for scheme in (REFERENCE, *schemes)
    }
    results = run_specs(list(grid.values()), verbose=verbose)
    normalized: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        raw = {
            scheme: results[grid[workload, scheme]].avg_miss_latency
            for scheme in (REFERENCE, *schemes)
        }
        normalized[workload] = normalize(raw, REFERENCE)
    average = {
        scheme: geomean(normalized[w][scheme] for w in workloads)
        for scheme in (REFERENCE, *schemes)
    }
    return Fig5Result(
        algorithm=algorithm,
        workloads=list(workloads),
        normalized=normalized,
        average=average,
    )


def render(result: Optional[Fig5Result] = None, **kwargs) -> str:
    result = result or fig5(**kwargs)
    schemes = [s for s in result.average]  # REFERENCE first, then schemes
    rows = []
    for workload in result.workloads:
        rows.append(
            [workload] + [result.normalized[workload][s] for s in schemes]
        )
    rows.append(["geomean"] + [result.average[s] for s in schemes])
    table = format_table(
        ["workload"] + list(schemes),
        rows,
        title=(
            f"Fig. 5: normalized avg data-access latency "
            f"({result.algorithm} compression; ideal = 1.0)"
        ),
    )
    summary = ""
    if "disco" in result.average and "cc" in result.average:
        summary += (
            f"\nDISCO vs CC:  "
            f"{100 * result.improvement_of_disco_over('cc'):+.1f}% "
            f"(paper: ~12%)"
        )
    if "disco" in result.average and "cnc" in result.average:
        summary += (
            f"\nDISCO vs CNC: "
            f"{100 * result.improvement_of_disco_over('cnc'):+.1f}% "
            f"(paper: ~10.1%)"
        )
    return table + summary


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
