"""Fig. 8 benchmark: DISCO scalability across 2x2 / 4x4 / 8x8 meshes.

Paper: the DISCO-vs-CC gain grows from insignificant on 4 banks to ~10 %
on 16 to ~22 % on 64 — bigger meshes mean more queueing to hide latency in
and more exposure of CC's per-access penalty.
"""

from common import save_and_print, BENCH_FIG8_MESHES, BENCH_FIG8_WORKLOADS, BENCH_ACCESSES, once

from repro.experiments.fig8 import fig8, overlap_share, render


def test_fig8(benchmark):
    result = once(
        benchmark,
        lambda: fig8(
            workloads=BENCH_FIG8_WORKLOADS,
            meshes=BENCH_FIG8_MESHES,
            accesses_per_core=BENCH_ACCESSES,
        ),
    )
    save_and_print('fig8', render(result))
    gains = [grid.gain("disco", "cc") for grid in result.values()]
    # DISCO wins at every scale, clearly at 4x4 and 8x8 (paper: 10%/22%).
    assert all(g > 0.0 for g in gains)
    assert gains[1] > 0.05 and gains[2] > 0.05
    # The paper's growth *mechanism* — the share of decompressions hidden
    # inside router queueing — must grow with mesh size.  The headline
    # gain itself falls here (16.0% -> 13.6% -> 9.7% at bench scale), and
    # why is open: disabling the bank-side fill fallback
    # (DiscoConfig.compress_at_fill) makes it fall faster, so the
    # fallback is not the cause (see EXPERIMENTS.md).
    overlaps = [overlap_share(grid) for grid in result.values()]
    assert overlaps[-1] > overlaps[0]
