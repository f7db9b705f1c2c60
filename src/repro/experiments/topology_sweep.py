"""Topology sweep — DISCO's benefit across fabric shapes (Fig. 5 style).

DISCO harvests router queueing delay, and queueing shape is a property of
the fabric: a torus halves average hop count but adds escape-VC pressure,
a ring concentrates everything on two directions, a concentrated mesh
funnels cluster traffic through hub routers.  This sweep runs the Fig. 5
latency comparison (cc / cnc / disco, normalized per workload to the
ideal system *of the same fabric*) on each topology, so the numbers
answer "how much of DISCO's overlap opportunity survives a fabric
change?" rather than re-ranking fabrics against each other.

Entry point::

    PYTHONPATH=src python -m repro.experiments.topology_sweep

Runs go through the shared cached parallel runner, so a re-render is
free and the sweep shares its ideal/mesh runs with fig5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import format_table, geomean, normalize
from repro.experiments.runner import (
    QUICK_ACCESSES,
    RunSpec,
    run_specs,
)

SCHEMES = ("cc", "cnc", "disco")
REFERENCE = "ideal"

#: Fabrics compared by default.  All carry 16 terminals so the workload,
#: cache capacity, and injection population are identical; only the
#: interconnect shape changes.
TOPOLOGIES = ("mesh", "torus", "ring")

#: Sweep workloads: a compressible-friendly subset keeps the full
#: (topology x scheme x workload) grid tractable for a console run.
SWEEP_WORKLOADS = ("blackscholes", "bodytrack", "streamcluster")


@dataclass
class TopologySweepResult:
    """Normalized latency per (topology, workload, scheme)."""

    algorithm: str
    topologies: List[str]
    workloads: List[str]
    #: topology -> workload -> scheme -> latency / ideal-of-that-topology
    normalized: Dict[str, Dict[str, Dict[str, float]]]
    #: topology -> scheme -> geomean over workloads
    average: Dict[str, Dict[str, float]]

    def disco_gain_over(self, other: str, topology: str) -> float:
        """Fractional latency reduction of DISCO vs ``other`` on one fabric."""
        table = self.average[topology]
        return 1.0 - table["disco"] / table[other]


def topology_sweep(
    topologies: Sequence[str] = TOPOLOGIES,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = QUICK_ACCESSES,
    schemes: Sequence[str] = SCHEMES,
    verbose: bool = False,
) -> TopologySweepResult:
    grid = {
        (topology, workload, scheme): RunSpec(
            scheme=scheme,
            workload=workload,
            algorithm=algorithm,
            accesses_per_core=accesses_per_core,
            topology=topology,
        )
        for topology in topologies
        for workload in workloads
        for scheme in (REFERENCE, *schemes)
    }
    results = run_specs(list(grid.values()), verbose=verbose)
    normalized: Dict[str, Dict[str, Dict[str, float]]] = {}
    average: Dict[str, Dict[str, float]] = {}
    for topology in topologies:
        normalized[topology] = {}
        for workload in workloads:
            raw = {
                scheme: results[
                    grid[topology, workload, scheme]
                ].avg_miss_latency
                for scheme in (REFERENCE, *schemes)
            }
            normalized[topology][workload] = normalize(raw, REFERENCE)
        average[topology] = {
            scheme: geomean(
                normalized[topology][w][scheme] for w in workloads
            )
            for scheme in (REFERENCE, *schemes)
        }
    return TopologySweepResult(
        algorithm=algorithm,
        topologies=list(topologies),
        workloads=list(workloads),
        normalized=normalized,
        average=average,
    )


def render(result: Optional[TopologySweepResult] = None, **kwargs) -> str:
    result = result or topology_sweep(**kwargs)
    schemes = [REFERENCE, *[s for s in SCHEMES if s in
                            next(iter(result.average.values()))]]
    rows = []
    for topology in result.topologies:
        for workload in result.workloads:
            rows.append(
                [f"{topology}/{workload}"]
                + [result.normalized[topology][workload][s] for s in schemes]
            )
        rows.append(
            [f"{topology} geomean"]
            + [result.average[topology][s] for s in schemes]
        )
    table = format_table(
        ["topology/workload"] + list(schemes),
        rows,
        title=(
            f"Topology sweep: normalized avg data-access latency "
            f"({result.algorithm} compression; per-fabric ideal = 1.0)"
        ),
    )
    summary_lines = []
    for topology in result.topologies:
        gains = ", ".join(
            f"vs {other} {100 * result.disco_gain_over(other, topology):+.1f}%"
            for other in ("cc", "cnc")
            if other in result.average[topology]
        )
        summary_lines.append(f"DISCO on {topology}: {gains}")
    return table + "\n" + "\n".join(summary_lines)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
