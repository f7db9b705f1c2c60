"""Experiment runners that regenerate every table and figure of the paper.

Each module reproduces one artifact of the evaluation section:

- :mod:`repro.experiments.table1` — compression scheme parameters;
- :mod:`repro.experiments.table2` — the baseline system configuration;
- :mod:`repro.experiments.fig5` — performance with delta compression;
- :mod:`repro.experiments.fig6` — performance with FPC and SC²;
- :mod:`repro.experiments.fig7` — energy, normalized to no-compression;
- :mod:`repro.experiments.fig8` — scalability (2x2 / 4x4 / 8x8 meshes);
- :mod:`repro.experiments.topology_sweep` — Fig. 5 on mesh, torus and ring;
- :mod:`repro.experiments.overhead` — the §4.3 area overhead analysis;
- :mod:`repro.experiments.ablation` — DISCO's mechanisms one at a time.

:mod:`repro.experiments.claims` (not imported here) checks the paper's
claims against all of them and regenerates ``bench_results/``.  The
latency and energy figures are one computation,
:func:`~repro.experiments.report.run_grids`: each scheme runs beside a
reference system in one :func:`run_specs` batch, on a process pool
(``REPRO_JOBS``) through :mod:`repro.experiments.runner`, which memoizes
results in-process and on disk (``~/.cache/repro-disco``), so Fig. 5 and
Fig. 7 price the same runs, as the paper derives both from one set.
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
