"""Table 1 — important parameters of different compression schemes.

The latencies and hardware overheads come from the registry (they are
input parameters, quoted from the cited papers); the *compression ratio*
column is measured by running each implemented algorithm over the
PARSEC-like line corpus, which is the reproduction's analogue of the
published average ratios (the ``table1.*`` claims rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.compression.registry import get_algorithm, get_timing
from repro.experiments.report import format_table
from repro.workloads.corpus import ValuePool
from repro.workloads.profiles import PARSEC_BENCHMARKS

#: The schemes Table 1 lists (plus the rest of the implemented family).
TABLE1_ALGORITHMS = ("fpc", "sfpc", "bdi", "sc2", "cpack", "delta")


@dataclass
class Table1Row:
    algorithm: str
    compression_cycles: int
    decompression_cycles: int
    hardware_overhead: float
    measured_ratio: float


def measure_ratio(
    algorithm_name: str,
    lines_per_profile: int = 150,
    seed: int = 1,
) -> float:
    """Corpus-average compression ratio of one algorithm.

    Statistical algorithms are trained per benchmark (SC²'s sampling
    phase) and evaluated on held-out lines of the same benchmark, then
    aggregated — mirroring how per-application ratios are reported.
    """
    total_raw = 0
    total_compressed = 0
    for profile in PARSEC_BENCHMARKS.values():
        pool = ValuePool(profile, seed=seed)
        algorithm = get_algorithm(algorithm_name)
        train = getattr(algorithm, "train", None)
        if train is not None and algorithm_name in ("sc2", "fvc"):
            train(pool.sample(2 * lines_per_profile, seed=seed + 1))
        for line in pool.sample(lines_per_profile, seed=seed + 2):
            compressed = algorithm.compress(line)
            total_raw += len(line)
            total_compressed += compressed.size_bytes
    return total_raw / total_compressed


def table1(
    algorithms: Sequence[str] = TABLE1_ALGORITHMS,
    lines_per_profile: int = 150,
) -> List[Table1Row]:
    rows = []
    for name in algorithms:
        timing = get_timing(name)
        rows.append(
            Table1Row(
                algorithm=name,
                compression_cycles=timing.compression_cycles,
                decompression_cycles=timing.decompression_cycles,
                hardware_overhead=timing.hardware_overhead,
                measured_ratio=measure_ratio(
                    name, lines_per_profile=lines_per_profile
                ),
            )
        )
    return rows


def render(rows: List[Table1Row]) -> str:
    return format_table(
        ["method", "comp (cyc)", "decomp (cyc)", "hw overhead", "ratio"],
        [
            [
                r.algorithm,
                r.compression_cycles,
                r.decompression_cycles,
                f"{100 * r.hardware_overhead:.1f}%",
                r.measured_ratio,
            ]
            for r in rows
        ],
        title="Table 1: compression scheme parameters (measured ratios)",
    )
