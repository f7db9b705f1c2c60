"""Fig. 6 — performance with FPC and SC² plugged into CC / CNC / DISCO.

DISCO is algorithm-agnostic (§3.2); this experiment swaps the engine for
FPC (5/5 cycles) and SC² (6/8 cycles, highest ratio) and repeats the Fig. 5
measurement.  DISCO's margin is widest under SC² — the long-latency
algorithm benefits most from having its latency hidden — and CNC falls
*behind* CC for the expensive algorithms (two-level compression pays the
long latency twice): the ``fig6.*`` claims rows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.fig5 import REFERENCE, panels
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
    return run_grids(panels(workloads, algorithms, accesses_per_core),
                     SCHEMES, REFERENCE, verbose=verbose)


def render(result: Dict[str, Grid]) -> str:
    from repro.experiments.claims import paper  # claims imports this module

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
                f"   (paper, SC2: {paper('fig6.sc2.disco_vs_cc')} / "
                f"{paper('fig6.sc2.disco_vs_cnc')})"
                if algorithm == "sc2"
                else ""
            )
        )
    return "\n\n".join(blocks)
