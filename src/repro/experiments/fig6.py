"""Fig. 6 — performance with FPC and SC² plugged into CC / CNC / DISCO.

DISCO is algorithm-agnostic (§3.2); this experiment swaps the engine for
FPC (5/5 cycles) and SC² (6/8 cycles, highest ratio) and repeats the Fig. 5
measurement.  The paper reports DISCO gaining 11-16 % on average, with the
biggest margin under SC² — the long-latency algorithm benefits most from
having its latency hidden — and CNC falling *behind* CC for the expensive
algorithms (two-level compression pays the long latency twice).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.fig5 import REFERENCE, panel
from repro.experiments.report import Grid, run_grids
from repro.experiments.runner import DEFAULT_WORKLOADS, FIGURE_ACCESSES

ALGORITHMS = ("fpc", "sc2")
SCHEMES = ("cc", "cnc", "disco")


def fig6(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithms: Sequence[str] = ALGORITHMS,
    accesses_per_core: int = FIGURE_ACCESSES,
    verbose: bool = False,
) -> Dict[str, Grid]:
    """One Fig. 5 panel per algorithm, keyed by algorithm."""
    panels = {
        algorithm: panel(workloads, algorithm, accesses_per_core)
        for algorithm in algorithms
    }
    return run_grids(panels, SCHEMES, REFERENCE, verbose=verbose)


def render(result: Optional[Dict[str, Grid]] = None, **kwargs) -> str:
    if result is None:
        result = fig6(**kwargs)
    blocks: List[str] = []
    for algorithm, grid in result.items():
        blocks.append(
            grid.table(
                f"Fig. 6 ({algorithm}): normalized latency (ideal = 1.0)"
            )
        )
        blocks.append(
            f"DISCO vs CC:  {100 * grid.gain('disco', 'cc'):+.1f}%   "
            f"DISCO vs CNC: {100 * grid.gain('disco', 'cnc'):+.1f}%"
            + (
                "   (paper, SC2: 15.5% / 16.7%)"
                if algorithm == "sc2"
                else ""
            )
        )
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
