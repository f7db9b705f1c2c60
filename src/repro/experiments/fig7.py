"""Fig. 7 — memory-subsystem energy, normalized to the no-compression
baseline.

Prices the *same simulations* Fig. 5 ran (the runner memoizes them) with
the Orion/CACTI-style event model: NoC dynamic + leakage, NUCA dynamic +
leakage, compressor dynamic + leakage, integrated over the steady-state
(post-warmup) window.  The paper reports DISCO at ~73.3 % of baseline
energy, beating CNC by ~9.1 % and CC by ~8.3 % on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.energy.accounting import EnergyBreakdown, energy_of_result
from repro.energy.params import EnergyParams
from repro.experiments.report import format_table, geomean, normalize
from repro.experiments.runner import (
    DEFAULT_WORKLOADS,
    FIGURE_ACCESSES,
    RunSpec,
    run_specs,
)

SCHEMES = ("baseline", "cc", "cnc", "disco")
REFERENCE = "baseline"


@dataclass
class Fig7Result:
    algorithm: str
    workloads: List[str]
    normalized: Dict[str, Dict[str, float]]  # workload -> scheme -> energy
    average: Dict[str, float]
    breakdowns: Dict[str, Dict[str, EnergyBreakdown]]

    def disco_vs(self, other: str) -> float:
        return 1.0 - self.average["disco"] / self.average[other]


def fig7(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = FIGURE_ACCESSES,
    params: Optional[EnergyParams] = None,
    verbose: bool = False,
) -> Fig7Result:
    params = params or EnergyParams()
    grid = {
        (workload, scheme): RunSpec(
            scheme=scheme,
            workload=workload,
            algorithm=algorithm,
            accesses_per_core=accesses_per_core,
        )
        for workload in workloads
        for scheme in SCHEMES
    }
    results = run_specs(list(grid.values()), verbose=verbose)
    normalized: Dict[str, Dict[str, float]] = {}
    breakdowns: Dict[str, Dict[str, EnergyBreakdown]] = {}
    for workload in workloads:
        totals: Dict[str, float] = {}
        breakdowns[workload] = {}
        for scheme in SCHEMES:
            result = results[grid[workload, scheme]]
            breakdown = energy_of_result(result, params=params)
            breakdowns[workload][scheme] = breakdown
            totals[scheme] = breakdown.total
        normalized[workload] = normalize(totals, REFERENCE)
    average = {
        scheme: geomean(normalized[w][scheme] for w in workloads)
        for scheme in SCHEMES
    }
    return Fig7Result(
        algorithm=algorithm,
        workloads=list(workloads),
        normalized=normalized,
        average=average,
        breakdowns=breakdowns,
    )


def render(result: Optional[Fig7Result] = None, **kwargs) -> str:
    result = result or fig7(**kwargs)
    rows = [
        [w] + [result.normalized[w][s] for s in SCHEMES]
        for w in result.workloads
    ]
    rows.append(["geomean"] + [result.average[s] for s in SCHEMES])
    table = format_table(
        ["workload"] + list(SCHEMES),
        rows,
        title=(
            "Fig. 7: normalized memory-subsystem energy "
            "(no-compression baseline = 1.0)"
        ),
    )
    summary = (
        f"\nDISCO / baseline: {result.average['disco']:.3f} (paper: ~0.733)\n"
        f"DISCO vs CC:  {100 * result.disco_vs('cc'):+.1f}% (paper: ~8.3%)\n"
        f"DISCO vs CNC: {100 * result.disco_vs('cnc'):+.1f}% (paper: ~9.1%)"
    )
    return table + summary


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
