"""Fig. 6 benchmark: FPC and SC² under CC/CNC/DISCO.

Paper: DISCO gains 11-16 %, the most with SC² (15.5 % over CC, 16.7 % over
CNC) because SC²'s long latency is what DISCO hides; CNC falls behind CC
for the expensive algorithms (two-level compression pays latency twice).
"""

from common import save_and_print, BENCH_ACCESSES, BENCH_WORKLOADS, once

from repro.experiments.fig6 import fig6, render


def test_fig6(benchmark):
    result = once(
        benchmark,
        lambda: fig6(
            workloads=BENCH_WORKLOADS, accesses_per_core=BENCH_ACCESSES
        ),
    )
    save_and_print('fig6', render(result))
    for algorithm in ("fpc", "sc2"):
        grid = result[algorithm]
        assert grid.gain("disco", "cc") > 0.03
        assert grid.gain("disco", "cnc") > 0.0
    # DISCO's edge over CNC grows with algorithm latency (SC2 > FPC gap,
    # the paper's headline Fig. 6 observation).
    sc2_gain = result["sc2"].gain("disco", "cnc")
    fpc_gain = result["fpc"].gain("disco", "cnc")
    assert sc2_gain >= fpc_gain - 0.02
