"""Topology sweep — DISCO's benefit across fabric shapes (Fig. 5 style).

DISCO harvests router queueing delay, and queueing shape is a property of
the fabric: a torus halves average hop count but adds escape-VC pressure,
a ring concentrates everything on two directions, a concentrated mesh
funnels cluster traffic through hub routers.  This sweep runs the Fig. 5
latency comparison (cc / cnc / disco, normalized per workload to the
ideal system *of the same fabric*) on each topology, so the numbers
answer "how much of DISCO's overlap opportunity survives a fabric
change?" rather than re-ranking fabrics against each other.

Runs go through the shared cached parallel runner, so a re-render is
free.  ``python -m repro.experiments.claims`` writes the sweep to
``bench_results/topology.txt``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.report import Grid, Panels, format_table, run_grids
from repro.experiments.runner import QUICK_ACCESSES

SCHEMES = ("cc", "cnc", "disco")
REFERENCE = "ideal"

#: Fabrics compared by default.  All carry 16 terminals so the workload,
#: cache capacity, and injection population are identical; only the
#: interconnect shape changes.
TOPOLOGIES = ("mesh", "torus", "ring")

#: Sweep workloads: a compressible-friendly subset keeps the full
#: (topology x scheme x workload) grid tractable for a console run.
SWEEP_WORKLOADS = ("blackscholes", "bodytrack", "streamcluster")


def panels(
    topologies: Sequence[str] = TOPOLOGIES,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = QUICK_ACCESSES,
) -> Panels:
    """One panel per fabric, keyed by topology name."""
    return {
        topology: {
            workload: dict(workload=workload, algorithm=algorithm,
                           accesses_per_core=accesses_per_core,
                           topology=topology)
            for workload in workloads
        }
        for topology in topologies
    }


def topology_sweep(
    *, schemes: Sequence[str] = SCHEMES, verbose: bool = False, **panel_args
) -> Dict[str, Grid]:
    """One grid per fabric of :func:`panels`."""
    return run_grids(panels(**panel_args), schemes, REFERENCE, verbose=verbose)


def render(result: Dict[str, Grid]) -> str:
    first = next(iter(result.values()))
    algorithm = first.results[first.rows[0], REFERENCE].algorithm
    rows = [
        line
        for topology, grid in result.items()
        for line in grid.table_rows(
            lambda workload: f"{topology}/{workload}", f"{topology} geomean"
        )
    ]
    table = format_table(
        ["topology/workload", *first.schemes],
        rows,
        title=(
            f"Topology sweep: normalized avg data-access latency "
            f"({algorithm} compression; per-fabric ideal = 1.0)"
        ),
    )
    summary_lines = []
    for topology, grid in result.items():
        gains = ", ".join(
            f"vs {other} {100 * grid.gain('disco', other):+.1f}%"
            for other in ("cc", "cnc")
            if other in grid.average
        )
        summary_lines.append(f"DISCO on {topology}: {gains}")
    return table + "\n" + "\n".join(summary_lines)
