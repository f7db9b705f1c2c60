"""Fig. 5 benchmark: latency with delta compression (CC/CNC/DISCO vs ideal).

Paper: DISCO beats CC by ~12 % and CNC by ~10.1 % on average.  The shape
assertions check orderings and ballpark factors, not absolute numbers.
"""

from common import BENCH_ACCESSES, BENCH_WORKLOADS, once, save_and_print

from repro.experiments.fig5 import fig5, render


def test_fig5(benchmark):
    result = once(
        benchmark,
        lambda: fig5(
            workloads=BENCH_WORKLOADS, accesses_per_core=BENCH_ACCESSES
        ),
    )
    save_and_print('fig5', render(result))
    avg = result.average
    # DISCO outperforms CC on average (paper: ~12%).
    assert avg["disco"] < avg["cc"]
    assert result.gain("disco", "cc") > 0.03
    # All compressing schemes land near the ideal (within ~25%).
    for scheme in ("cc", "cnc", "disco"):
        assert 0.7 <= avg[scheme] <= 1.3
    # The no-compression baseline loses to DISCO (capacity + traffic);
    # compute-bound workloads keep it close to ideal, so the comparison
    # point is DISCO, not every compressing scheme.
    assert avg["baseline"] > avg["disco"]
