"""Fig. 8 — scalability of DISCO with CMP size (2x2 / 4x4 / 8x8 meshes).

The paper scales the tiled CMP from 4 NUCA banks to 64 and reports the
DISCO-vs-CC gain growing with it (the ``fig8.*`` claims rows): bigger
meshes mean more hops, more queueing — and therefore both more exposure
of per-access (de)compression latency for CC and more idle time for DISCO
to hide its own in.

This is *strong* scaling, matching the paper's setup: the same workload
and the same total NUCA capacity, distributed over more (and therefore
smaller, faster) banks.  At 2x2 the four large banks dominate the access
path (little for DISCO to win); at 8x8 the 64-node network dominates it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.report import Grid, Panels, format_table, run_grids
from repro.experiments.runner import FIGURE_ACCESSES

#: Mesh sizes of Fig. 8 (width, height).
MESHES: Tuple[Tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8))

#: Strong scaling: constant total LLC capacity -> per-bank sets shrink and
#: bank access gets faster as the mesh grows (CACTI-style size/latency
#: relation, coarse).
_BANK_SETS = {(2, 2): 128, (4, 4): 32, (8, 8): 8}
_BANK_LATENCY = {(2, 2): 6, (4, 4): 4, (8, 8): 3}

#: A lighter workload subset — the 8x8 mesh runs 64 cores cycle-level.
SCALABILITY_WORKLOADS = ("canneal", "freqmine", "streamcluster", "x264")

SCHEMES = ("cc", "disco")
REFERENCE = "ideal"


def panels(
    workloads: Sequence[str] = SCALABILITY_WORKLOADS,
    meshes: Sequence[Tuple[int, int]] = MESHES,
    accesses_per_core: int = FIGURE_ACCESSES,
) -> Panels:
    """One panel per mesh, keyed by (width, height)."""
    return {
        (width, height): {
            workload: dict(
                workload=workload, width=width, height=height,
                accesses_per_core=accesses_per_core,
                l2_sets_per_bank=_BANK_SETS.get((width, height), 32),
                l2_hit_latency=_BANK_LATENCY.get((width, height), 4),
            )
            for workload in workloads
        }
        for width, height in meshes
    }


def fig8(*, verbose: bool = False, **panel_args) -> Dict[Tuple[int, int], Grid]:
    """One grid per mesh of :func:`panels`."""
    return run_grids(panels(**panel_args), SCHEMES, REFERENCE, verbose=verbose)


def overlap_share(grid: Grid) -> float:
    """Share of DISCO decompressions hidden inside router queueing (vs
    charged at the ejection NI) — the §3.2 overlap."""
    hidden = exposed = 0
    for row in grid.rows:
        counters = grid.results[row, "disco"].counters_measured
        hidden += counters["router_decompressions"]
        exposed += counters["ni_decompressions"]
    total = hidden + exposed
    return hidden / total if total else 0.0


def render(result: Dict[Tuple[int, int], Grid]) -> str:
    from repro.experiments.claims import paper  # claims imports this module

    rows = [
        [
            f"{width}x{height} ({width * height} banks)",
            grid.average["cc"],
            grid.average["disco"],
            f"{100 * grid.gain('disco', 'cc'):+.1f}%",
            f"{100 * overlap_share(grid):.0f}%",
        ]
        for (width, height), grid in result.items()
    ]
    table = format_table(
        ["mesh", "cc (norm)", "disco (norm)", "gain vs cc", "overlap"],
        rows,
        title="Fig. 8: scalability of DISCO (normalized to ideal)",
    )
    return table + (
        f"\npaper: gain grows {paper('fig8.gain_2x2')} (2x2) -> "
        f"{paper('fig8.gain_4x4')} (4x4) -> {paper('fig8.gain_8x8')} (8x8)."
        "\n'overlap' = share of DISCO decompressions hidden in router"
        "\nqueueing - the paper's growth mechanism (see EXPERIMENTS.md)."
    )
