"""Fig. 7 — memory-subsystem energy, normalized to the no-compression
baseline.

Prices the *same simulations* Fig. 5 ran (the runner memoizes them) with
the Orion/CACTI-style event model: NoC dynamic + leakage, NUCA dynamic +
leakage, compressor dynamic + leakage, integrated over the steady-state
(post-warmup) window.  Its claims are the ``fig7.*`` rows of
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.energy.accounting import energy_of_result
from repro.energy.params import EnergyParams
from repro.experiments.fig5 import panels
from repro.experiments.report import Grid, run_grids
from repro.experiments.runner import DEFAULT_WORKLOADS, FIGURE_ACCESSES

SCHEMES = ("baseline", "cc", "cnc", "disco")
REFERENCE = "baseline"


def fig7(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    algorithm: str = "delta",
    accesses_per_core: int = FIGURE_ACCESSES,
    params: Optional[EnergyParams] = None,
    verbose: bool = False,
) -> Grid:
    params = params or EnergyParams()
    return run_grids(
        panels(workloads, (algorithm,), accesses_per_core), SCHEMES, REFERENCE,
        value=lambda result: energy_of_result(result, params=params).total,
        verbose=verbose,
    )[algorithm]


def render(result: Grid) -> str:
    from repro.experiments.claims import paper  # claims imports this module

    table = result.table(
        "Fig. 7: normalized memory-subsystem energy "
        "(no-compression baseline = 1.0)"
    )
    summary = (
        f"\nDISCO / baseline: {result.average['disco']:.3f} "
        f"(paper: {paper('fig7.disco')})\n"
        f"DISCO vs CC:  {100 * result.gain('disco', 'cc'):+.1f}% "
        f"(paper: {paper('fig7.disco_vs_cc')})\n"
        f"DISCO vs CNC: {100 * result.gain('disco', 'cnc'):+.1f}% "
        f"(paper: {paper('fig7.disco_vs_cnc')})"
    )
    return table + summary
