"""Shared benchmark configuration.

The benchmarks regenerate the paper's tables/figures at a reduced default
scale so the whole suite stays tractable in pure Python; set
``REPRO_BENCH_FULL=1`` for the figure-quality configuration (all eight
workloads, full trace length — expect a long run).

Fig. 5 and Fig. 7 intentionally share simulation specs: the runner memoizes
(scheme, workload, config) results within the pytest session, so the energy
view prices the very runs the latency view measured, as in the paper.
"""

import os

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Workloads used by the figure benchmarks.
BENCH_WORKLOADS = (
    ("blackscholes", "bodytrack", "canneal", "dedup",
     "fluidanimate", "freqmine", "streamcluster", "x264")
    if FULL
    else ("blackscholes", "canneal", "dedup", "fluidanimate")
)

#: Accesses per core for the CMP simulations.
BENCH_ACCESSES = 1500 if FULL else 800

#: Workloads/meshes for the Fig. 8 scalability sweep.
BENCH_FIG8_WORKLOADS = (
    ("canneal", "freqmine", "streamcluster", "x264")
    if FULL
    else ("canneal", "fluidanimate")
)
BENCH_FIG8_MESHES = ((2, 2), (4, 4), (8, 8))


def _results_dir() -> str:
    out_dir = os.path.join(os.path.dirname(__file__), "..", "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def save_and_print(name: str, text: str) -> None:
    """Print a rendered table and persist it under ``bench_results/``.

    pytest captures stdout by default, so the benches also write their
    tables to files; EXPERIMENTS.md records the figure-quality runs.
    """
    print()
    print(text)
    out_dir = _results_dir()
    suffix = "_full" if FULL else ""
    path = os.path.join(out_dir, f"{name}{suffix}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
