"""Fig. 8 — scalability of DISCO with CMP size (2x2 / 4x4 / 8x8 meshes).

The paper scales the tiled CMP from 4 NUCA banks to 64 and reports the
DISCO-vs-CC gain growing from insignificant at 2x2 through ~10 % at 4x4 to
~22 % at 8x8: bigger meshes mean more hops, more queueing — and therefore
both more exposure of per-access (de)compression latency for CC and more
idle time for DISCO to hide its own in.

This is *strong* scaling, matching the paper's setup: the same workload
and the same total NUCA capacity, distributed over more (and therefore
smaller, faster) banks.  At 2x2 the four large banks dominate the access
path (little for DISCO to win); at 8x8 the 64-node network dominates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import format_table, geomean, normalize
from repro.experiments.runner import (
    FIGURE_ACCESSES,
    RunSpec,
    run_specs,
)

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


@dataclass
class Fig8Result:
    workloads: List[str]
    meshes: List[Tuple[int, int]]
    # mesh -> scheme -> geomean normalized latency
    average: Dict[Tuple[int, int], Dict[str, float]]
    # mesh -> fraction of DISCO decompressions hidden inside router
    # queueing (vs charged at the ejection NI) — the §3.2 overlap share
    overlap_share: Dict[Tuple[int, int], float] = None  # type: ignore

    def disco_gain_over_cc(self, mesh: Tuple[int, int]) -> float:
        row = self.average[mesh]
        return 1.0 - row["disco"] / row["cc"]


def fig8(
    workloads: Sequence[str] = SCALABILITY_WORKLOADS,
    meshes: Sequence[Tuple[int, int]] = MESHES,
    accesses_per_core: int = FIGURE_ACCESSES,
    verbose: bool = False,
) -> Fig8Result:
    grid = {
        ((width, height), workload, scheme): RunSpec(
            scheme=scheme,
            workload=workload,
            width=width,
            height=height,
            accesses_per_core=accesses_per_core,
            l2_sets_per_bank=_BANK_SETS.get((width, height), 32),
            l2_hit_latency=_BANK_LATENCY.get((width, height), 4),
        )
        for width, height in meshes
        for workload in workloads
        for scheme in (REFERENCE, *SCHEMES)
    }
    results = run_specs(list(grid.values()), verbose=verbose)
    average: Dict[Tuple[int, int], Dict[str, float]] = {}
    overlap_share: Dict[Tuple[int, int], float] = {}
    for width, height in meshes:
        normalized_rows: Dict[str, Dict[str, float]] = {}
        mesh = (width, height)
        hidden = exposed = 0
        for workload in workloads:
            raw: Dict[str, float] = {}
            for scheme in (REFERENCE, *SCHEMES):
                result = results[grid[mesh, workload, scheme]]
                raw[scheme] = result.avg_miss_latency
                if scheme == "disco":
                    counters = result.counters_measured
                    hidden += counters["router_decompressions"]
                    exposed += counters["ni_decompressions"]
            normalized_rows[workload] = normalize(raw, REFERENCE)
        average[mesh] = {
            scheme: geomean(
                normalized_rows[w][scheme] for w in workloads
            )
            for scheme in (REFERENCE, *SCHEMES)
        }
        total = hidden + exposed
        overlap_share[mesh] = hidden / total if total else 0.0
    return Fig8Result(
        workloads=list(workloads),
        meshes=list(meshes),
        average=average,
        overlap_share=overlap_share,
    )


def render(result: Optional[Fig8Result] = None, **kwargs) -> str:
    result = result or fig8(**kwargs)
    rows = []
    for mesh in result.meshes:
        row = result.average[mesh]
        rows.append(
            [
                f"{mesh[0]}x{mesh[1]} ({mesh[0] * mesh[1]} banks)",
                row["cc"],
                row["disco"],
                f"{100 * result.disco_gain_over_cc(mesh):+.1f}%",
                f"{100 * result.overlap_share[mesh]:.0f}%",
            ]
        )
    table = format_table(
        ["mesh", "cc (norm)", "disco (norm)", "gain vs cc", "overlap"],
        rows,
        title="Fig. 8: scalability of DISCO (normalized to ideal)",
    )
    return table + (
        "\npaper: gain grows ~0% (2x2) -> ~10% (4x4) -> ~22% (8x8)."
        "\n'overlap' = share of DISCO decompressions hidden in router"
        "\nqueueing - the paper's growth mechanism (see EXPERIMENTS.md)."
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render(verbose=True))
