"""Figure grids and plain-text result tables (the harness prints what
the paper plots)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

from repro.cmp.system import SimulationResult
from repro.experiments.runner import RunSpec, run_specs


def normalize(
    values: Mapping[str, float], reference: str
) -> Dict[str, float]:
    """Normalize a row of values to one entry (the paper's 'ideal'=1.0)."""
    ref = values[reference]
    if ref == 0:
        raise ZeroDivisionError(f"reference {reference!r} is zero")
    return {key: value / ref for key, value in values.items()}


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the usual aggregate for normalized metrics)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geomean requires positive values")
        product *= value
    return product ** (1.0 / len(values))


def avg_miss_latency(result: SimulationResult) -> float:
    """The paper's performance metric: average on-chip data-access
    latency."""
    return result.avg_miss_latency


@dataclass
class Grid:
    """One panel of a figure: every scheme run on every row, each row
    normalized to its reference run, and each scheme's geomean."""

    rows: List[str]
    #: Column order, the reference first.
    schemes: List[str]
    results: Dict[Tuple[str, str], SimulationResult]  # (row, scheme)
    normalized: Dict[str, Dict[str, float]]  # row -> scheme -> value
    average: Dict[str, float]  # scheme -> geomean over rows

    def gain(self, scheme: str, over: str) -> float:
        """Fractional reduction of ``scheme``'s geomean against ``over``'s."""
        return 1.0 - self.average[scheme] / self.average[over]

    def table_rows(
        self, name: Callable[[str], str] = str, total: str = "geomean"
    ) -> List[List[object]]:
        """One table row per grid row (labelled ``name(row)``), then the
        geomeans (labelled ``total``)."""
        lines: List[List[object]] = [
            [name(row), *(self.normalized[row][s] for s in self.schemes)]
            for row in self.rows
        ]
        lines.append([total, *(self.average[s] for s in self.schemes)])
        return lines

    def table(self, title: str) -> str:
        return format_table(
            ["workload", *self.schemes], self.table_rows(), title=title
        )


#: Panel key -> row -> the :class:`RunSpec` fields its runs share.
Panels = Mapping[Hashable, Mapping[str, Mapping[str, object]]]


def grid_specs(
    panels: Panels, schemes: Sequence[str], reference: str
) -> Dict[Tuple[Hashable, str, str], RunSpec]:
    """Every (panel, row, scheme) run of a figure: each row runs
    ``reference`` and every one of ``schemes``."""
    return {
        (key, row, scheme): RunSpec(scheme=scheme, **fields)
        for key, rows in panels.items()
        for row, fields in rows.items()
        for scheme in [reference, *(s for s in schemes if s != reference)]
    }


def run_grids(
    panels: Panels,
    schemes: Sequence[str],
    reference: str,
    value: Callable[[SimulationResult], float] = avg_miss_latency,
    verbose: bool = False,
) -> Dict[Hashable, Grid]:
    """The computation behind every §4.2 figure, one grid per panel.

    Every run of :func:`grid_specs` resolves in a single
    :func:`run_specs` batch, so the pool sees the whole figure at once.
    Each row's ``value`` per scheme is normalized to the reference's.
    """
    specs = grid_specs(panels, schemes, reference)
    columns = list(dict.fromkeys(scheme for _, _, scheme in specs))
    resolved = run_specs(list(specs.values()), verbose=verbose)
    grids: Dict[Hashable, Grid] = {}
    for key, rows in panels.items():
        results = {
            (row, scheme): resolved[specs[key, row, scheme]]
            for row in rows
            for scheme in columns
        }
        normalized = {
            row: normalize(
                {s: value(results[row, s]) for s in columns}, reference
            )
            for row in rows
        }
        average = {
            s: geomean(normalized[row][s] for row in rows) for s in columns
        }
        grids[key] = Grid(list(rows), columns, results, normalized, average)
    return grids


def render_heatmap(
    counts: Mapping[int, int],
    width: int,
    height: int,
    title: str = "",
) -> str:
    """Per-node activity grid (row-major node ids, origin top-left).

    ``counts`` is sparse — typically ``node_hop_counts`` from a packet
    trace (:func:`repro.telemetry.export.node_hop_counts`); nodes with no
    events render as 0, so a cold router is visible, not absent.
    """
    if width < 1 or height < 1:
        raise ValueError("heatmap dimensions must be >= 1")
    cells = [
        [counts.get(y * width + x, 0) for x in range(width)]
        for y in range(height)
    ]
    cell_width = max(
        len(str(value)) for row in cells for value in row
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in cells:
        lines.append(
            "  ".join(str(value).rjust(cell_width) for value in row)
        )
    peak = max(max(row) for row in cells)
    total = sum(sum(row) for row in cells)
    lines.append(f"(total {total}, peak {peak})")
    return "\n".join(lines)


def render_histogram(
    rows: Sequence[Sequence[object]],
    title: str = "",
    value_header: str = "count",
    bar_width: int = 40,
) -> str:
    """(label, count) rows as a table with proportional ASCII bars.

    The shape ``latency_histogram`` (repro.telemetry.export) produces;
    any (label, non-negative count) pairs work.
    """
    counts = [int(row[1]) for row in rows]
    peak = max(counts) if counts else 0
    table_rows = []
    for (label, _), count in zip(rows, counts):
        bar = "#" * round(bar_width * count / peak) if peak else ""
        table_rows.append([label, count, bar])
    return format_table(
        ["bin", value_header, ""], table_rows, title=title
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table; floats rendered with 3 decimals."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rendered:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
        )
    return "\n".join(lines)
