"""Shared benchmark configuration.

The benchmarks regenerate the paper's tables/figures at a reduced default
scale so the whole suite stays tractable in pure Python; set
``REPRO_BENCH_FULL=1`` for the figure-quality configuration (all eight
workloads, full trace length — expect a long run).

Fig. 5 and Fig. 7 intentionally share simulation specs: the runner memoizes
(scheme, workload, config) results within the pytest session, so the energy
view prices the very runs the latency view measured, as in the paper.
"""

import json
import os
import time

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


def _record_timing(name: str, seconds: float, cache_hit=None) -> None:
    """Append this run's wall-clock to ``bench_results/timing.json``.

    The file maps benchmark name -> list of ``{when, seconds, full,
    cache_hit}`` entries, newest last, so successive runs can be compared
    (e.g. to see the event-driven kernel's effect without digging through
    pytest-benchmark output).  ``cache_hit`` marks runs served entirely
    from the runner's memo/disk caches — a 0.004 s "fig5" entry is a
    cache lookup, not a simulation, and must never be read as a speedup.
    """
    path = os.path.join(_results_dir(), "timing.json")
    try:
        with open(path) as handle:
            timings = json.load(handle)
    except (OSError, json.JSONDecodeError):
        timings = {}
    entry = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seconds": round(seconds, 3),
        "full": FULL,
    }
    if cache_hit is not None:
        entry["cache_hit"] = bool(cache_hit)
    timings.setdefault(name, []).append(entry)
    with open(path, "w") as handle:
        json.dump(timings, handle, indent=2, sort_keys=True)
        handle.write("\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing,
    recording its wall-clock into ``bench_results/timing.json``.

    The entry is tagged ``cache_hit: true`` when the run performed no
    fresh simulation (every spec came from the runner's caches)."""
    from repro.experiments.runner import simulated_runs

    name = getattr(benchmark, "name", None) or getattr(fn, "__name__", "bench")
    before = simulated_runs()
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    _record_timing(
        name,
        time.perf_counter() - start,
        cache_hit=simulated_runs() == before,
    )
    return result


#: The tick-everything kernel's cold fig5 wall-clock (recorded 2026-08-05,
#: before the event-driven rewrite) — the denominator for every speedup
#: quoted in BENCH_fig5.json.
FIG5_BASELINE_SECONDS = 45.954


def append_bench_fig5(
    config: str,
    wall_seconds: float,
    cache_hit: bool,
    extra: dict = None,
) -> dict:
    """Append one fig5 wall-clock measurement to ``BENCH_fig5.json``.

    The file is a trajectory, not a snapshot: a pinned tick-all
    ``baseline`` plus a ``runs`` list, newest last.  ``config``
    distinguishes the standard bench configuration from the CI smoke
    job's reduced one — regression checks only compare like with like.
    Only cold runs (``cache_hit`` false) are meaningful for speedups;
    cache hits are recorded but carry no ``speedup_vs_baseline``.
    Older entries name the kernel mode they ran under; newer ones carry
    no ``kernel`` field because only one kernel remains.
    Returns the appended entry.
    """
    path = os.path.join(_results_dir(), "BENCH_fig5.json")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload.setdefault(
        "baseline",
        {
            "when": "2026-08-05T12:45:54",
            "wall_seconds": FIG5_BASELINE_SECONDS,
            "kernel": "tick-all",
            "config": "bench",
        },
    )
    entry = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_seconds": round(wall_seconds, 3),
        "config": config,
        "cache_hit": bool(cache_hit),
        "full": FULL,
    }
    if not cache_hit and config == "bench":
        entry["speedup_vs_baseline"] = round(
            FIG5_BASELINE_SECONDS / wall_seconds, 2
        )
    if extra:
        entry.update(extra)
    payload.setdefault("runs", []).append(entry)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


def save_json(name: str, payload: dict) -> str:
    """Persist a machine-readable result under ``bench_results/``.

    Companion to :func:`save_and_print`: the ``.txt`` tables are for
    humans, these ``.json`` files are for tooling (regression diffing,
    the telemetry smoke job's artifacts).  Returns the written path.
    """
    out_dir = _results_dir()
    suffix = "_full" if FULL else ""
    path = os.path.join(out_dir, f"{name}{suffix}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


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
