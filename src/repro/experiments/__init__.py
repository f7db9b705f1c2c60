"""Experiment runners that regenerate every table and figure of the paper.

Each module reproduces one artifact of the evaluation section:

- :mod:`repro.experiments.table1` — compression scheme parameters;
- :mod:`repro.experiments.table2` — the baseline system configuration;
- :mod:`repro.experiments.fig5` — performance with delta compression;
- :mod:`repro.experiments.fig6` — performance with FPC and SC²;
- :mod:`repro.experiments.fig7` — energy, normalized to no-compression;
- :mod:`repro.experiments.fig8` — scalability (2x2 / 4x4 / 8x8 meshes);
- :mod:`repro.experiments.topology_sweep` — Fig. 5 on mesh, torus and ring;
- :mod:`repro.experiments.overhead` — the §4.3 area overhead analysis.

The latency and energy figures are one computation: run each scheme beside
a reference system, normalize every workload to the reference and take the
geomean per scheme.  :func:`~repro.experiments.report.run_grids` performs
it, one :class:`~repro.experiments.report.Grid` per panel, and resolves a
whole figure in one :func:`run_specs` batch.  Batches go through
:mod:`repro.experiments.runner`: simulations fan out over a process pool
(``REPRO_JOBS``), and results are memoized in-process plus
content-addressed on disk (``~/.cache/repro-disco``), so Fig. 5 and Fig. 7
price the same runs — exactly as the paper derives both from one set of
simulations — and re-rendering a figure is free.
"""

from repro.experiments.runner import (
    RunSpec,
    clear_cache,
    clear_disk_cache,
    run_spec,
    run_specs,
)
from repro.experiments.report import format_table, normalize, run_grids

__all__ = [
    "RunSpec",
    "run_spec",
    "run_specs",
    "run_grids",
    "clear_cache",
    "clear_disk_cache",
    "format_table",
    "normalize",
]
