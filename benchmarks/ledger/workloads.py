"""The ledger's four workloads, as plain spec dictionaries.

Everything here is data: the benchmark process never imports ``repro``.
A spec dictionary holds :class:`repro.experiments.RunSpec` keyword
arguments; workers turn it into a ``RunSpec`` and the service accepts it
as a submission payload unchanged.  ``--seed`` shifts every
``RunSpec.seed``; seed 0 reproduces the figures' own specs (``RunSpec``'s
default seed is 7).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: ``RunSpec.seed`` default; ``--seed N`` runs seed ``BASE_SEED + N``.
BASE_SEED = 7

#: Campaign lists run their longest specs first (canneal, then dedup...;
#: disco before baseline on the sparse mesh).  Two workers take specs in
#: list order, so longest-first leaves the shortest specs for the end
#: and the pass's idle tail, which list order alone decides, stays small.
FIG5_BENCHMARKS = ("canneal", "dedup", "fluidanimate", "blackscholes")
FIG5_SCHEMES = ("ideal", "baseline", "cc", "cnc", "disco")
FIG6_BENCHMARKS = ("canneal", "fluidanimate")
FIG6_ALGORITHMS = ("fpc", "sc2")
FIG6_SCHEMES = ("ideal", "cc", "cnc", "disco")
FIGURE_ACCESSES = 800

SPARSE_SCHEMES = ("disco", "baseline")
SPARSE_SEEDS = 4

#: One service unit: about 80 ms of simulation, so the service's own
#: overhead (HTTP, admission, dispatch, pickling, publish) is a large
#: share of its latency.
SERVICE_SPEC = dict(
    scheme="disco", workload="canneal", width=2, height=2,
    accesses_per_core=200,
)
SERVICE_CLIENTS = 2
#: Submissions lined up per client.  A run stops submitting after its
#: ``--seconds``, long before a client runs out: 30 s take about 190
#: units per client on the 2-vCPU measurement host.
SERVICE_UNITS_PER_CLIENT = 1000
#: Every fourth submission repeats an earlier seed of the same client.
SERVICE_REPEAT_EVERY = 4
#: Fresh seeds of different clients never collide.
SERVICE_SEED_STRIDE = 100_000

CAMPAIGNS = ("fig5-cold", "sparse-16x16", "fig6-algos")
WORKLOADS = CAMPAIGNS + ("service-closed",)

#: Paper's DISCO-over-CC latency gain, percent (Fig. 5 delta, Fig. 6 SC2).
PAPER_GAIN_PCT = {"delta": 12.0, "sc2": 15.5}


def spec_key(spec: Dict) -> str:
    """A short, stable label for one spec (used to print digests)."""
    return (
        f"{spec['scheme']}/{spec.get('algorithm', 'delta')}:"
        f"{spec['workload']}@{spec.get('width', 4)}x{spec.get('height', 4)}"
        f",a{spec['accesses_per_core']},s{spec['seed']}"
    )


def nodes(spec: Dict) -> int:
    return spec.get("width", 4) * spec.get("height", 4)


def accesses(spec: Dict) -> int:
    """Memory accesses the spec simulates: one core per node."""
    return nodes(spec) * spec["accesses_per_core"]


def campaign_specs(workload: str, seed: int) -> List[Dict]:
    """The full spec list one pass of a campaign workload resolves."""
    if workload == "fig5-cold":
        return [
            dict(scheme=scheme, workload=bench, algorithm="delta",
                 accesses_per_core=FIGURE_ACCESSES, seed=BASE_SEED + seed)
            for bench in FIG5_BENCHMARKS
            for scheme in FIG5_SCHEMES
        ]
    if workload == "sparse-16x16":
        return [
            dict(scheme=scheme, workload="blackscholes", width=16,
                 height=16, accesses_per_core=40,
                 seed=BASE_SEED + SPARSE_SEEDS * seed + k)
            for scheme in SPARSE_SCHEMES
            for k in range(SPARSE_SEEDS)
        ]
    if workload == "fig6-algos":
        return [
            dict(scheme=scheme, workload=bench, algorithm=algorithm,
                 accesses_per_core=FIGURE_ACCESSES, seed=BASE_SEED + seed)
            for bench in FIG6_BENCHMARKS
            for algorithm in FIG6_ALGORITHMS
            for scheme in FIG6_SCHEMES
        ]
    raise KeyError(f"{workload!r} is not a campaign workload")


def service_plan(seed: int) -> List[List[Tuple[Dict, int]]]:
    """Per-client submission lists for the service workload.

    Each entry is ``(spec, first)``: ``first`` is the index, in the same
    client's list, of the submission whose seed this one repeats, or -1
    for a fresh seed.  A client repeats only its own completed
    submissions, so every repeat is served from the service's caches.
    """
    plan = []
    for client in range(SERVICE_CLIENTS):
        rng = random.Random(f"service:{seed}:{client}")
        base = BASE_SEED + seed + SERVICE_SEED_STRIDE * (1 + client)
        entries: List[Tuple[Dict, int]] = []
        fresh: List[int] = []
        for index in range(SERVICE_UNITS_PER_CLIENT):
            if index % SERVICE_REPEAT_EVERY == SERVICE_REPEAT_EVERY - 1:
                first = rng.choice(fresh)
                entries.append((entries[first][0], first))
            else:
                fresh.append(index)
                entries.append((dict(SERVICE_SPEC, seed=base + index), -1))
        plan.append(entries)
    return plan


def trace_subset(workload: str, seed: int) -> List[Dict]:
    """The specs a traced run times layer by layer.

    A fixed subset (not a time budget) keeps the traced counts exact
    across runs and commits.  Each subset holds the workload's DISCO
    specs and the CC baseline the paper compares them with.
    """
    if workload == "fig5-cold":
        return [s for s in campaign_specs(workload, seed)
                if s["workload"] == "blackscholes"]
    if workload == "sparse-16x16":
        return [s for s in campaign_specs(workload, seed)
                if s["seed"] == BASE_SEED + SPARSE_SEEDS * seed]
    if workload == "fig6-algos":
        return [s for s in campaign_specs(workload, seed)
                if s["workload"] == "fluidanimate"
                and s["scheme"] in ("cc", "disco")]
    if workload == "service-closed":
        return [spec for spec, first in service_plan(seed)[0][:16]
                if first < 0]
    raise KeyError(workload)


def campaign_checks(
    workload: str, averages: Dict[str, Dict[str, float]]
) -> Tuple[List[str], Dict]:
    """Science checks on one campaign pass: ``(problems, info)``.

    ``averages`` maps algorithm -> scheme -> Fig. 5's geometric mean of
    latency normalised to ``ideal``, as the worker computed it.
    fig5-cold must keep the orderings ``benchmarks/bench_fig5.py``
    asserts (DISCO beats CC; the uncompressed baseline loses to DISCO).
    ``info`` carries ``paper_error_pp``, the distance in percentage
    points between the measured DISCO-over-CC gain and the paper's.
    """
    algorithm = {"fig5-cold": "delta", "fig6-algos": "sc2"}.get(workload)
    if algorithm is None:
        return [], {}
    average = averages[algorithm]
    gain_pct = 100.0 * (1.0 - average["disco"] / average["cc"])
    info = {
        "disco_vs_cc_pct": gain_pct,
        "paper_error_pp": abs(gain_pct - PAPER_GAIN_PCT[algorithm]),
    }
    problems = []
    if workload == "fig5-cold":
        if not average["disco"] < average["cc"]:
            problems.append("fig5 ordering broken: disco >= cc")
        if not average["baseline"] > average["disco"]:
            problems.append("fig5 ordering broken: baseline <= disco")
    return problems, info
