"""Performance ledger for the DISCO reproduction.

Run a workload (all four when ``--workload`` is not given)::

    python benchmarks/ledger/bench.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace [0|1]] [--repeats N] [--out LEDGER.json]

Compare two ledgers of alternating runs, print one ledger's spreads and
the bounds they imply, time ``fig5()`` on several source trees (the
drift measurement), or check that a known slowdown of the program
survives the conversion to reference seconds::

    python benchmarks/ledger/bench.py compare PARENT.json CHANGE.json
    python benchmarks/ledger/bench.py spread LEDGER.json [--kind run]
    python benchmarks/ledger/bench.py drift LABEL=TREE... [--repeats N]
        [--jobs J] [--out LEDGER.json]
    python benchmarks/ledger/bench.py slowdown [--workload NAME]
        [--pairs N] [--every M] [--out LEDGER.json]

Every workload runs in fresh child processes with their own empty
``REPRO_CACHE_DIR``, and reaches the program only through its public
entry points.  A campaign workload runs its spec list once; the service
workload runs its clients for ``--seconds``.  End-to-end metrics are
measured with tracing off, and their times are converted to reference
seconds so that the host's own speed changes cancel out (see
:mod:`hostspeed`); ``--trace 1`` measures the per-layer metrics instead.
The metric names, units and bounds are those declared in
``BENCHMARK.json``, plus the undeclared end-to-end numbers of
:data:`REPORTED`.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import ledger
import micro
import procs
import workloads as wl
from hostspeed import REFERENCE_LOOP_S, HostSpeed
from ledger import Bound
from procs import ROOT, SRC

BENCHMARK = ROOT / "BENCHMARK.json"
#: Scratch space for caches, logs and ``trace.json`` (ignored by git).
RUN_DIR = ROOT / ".ledger-run"
#: One repeat of one workload ends within this many seconds.
RUN_BUDGET_S = 165.0
JOBS = 2
#: Set-up samples per run; their median is ``setup_s``.  Half of the
#: extra samples are taken before the timed part and half after, so the
#: median spans the run rather than one moment of the host.
CAMPAIGN_SETUPS = 7
SERVICE_SETUPS = 5
#: End-to-end numbers that ``BENCHMARK.json`` does not declare (README.md
#: says why): (unit, better, bound).  They are printed beside the
#: declared metrics, ledgered, and judged by ``compare`` with these
#: bounds, the floors of the ledger's specification.
REPORTED = {
    "setup_host_s": ("s", "lower", Bound(0.1, absolute=True)),
    "node_cycles_per_ref_s": ("1/ref_s", "higher", Bound(0.10)),
    "node_cycles_per_s": ("1/s", "higher", Bound(0.10)),
    "wall_s": ("s", "lower", Bound(0.10)),
    "units_per_s": ("1/s", "higher", Bound(0.10)),
    "unit_latency_p50_ms": ("ms", "lower", Bound(0.10)),
    "unit_latency_p95_ms": ("ms", "lower", Bound(0.15)),
    "paper_error_pp": ("pp", "lower", Bound(0.01, absolute=True)),
    "failed_ratio": ("ratio", "lower", Bound(0.0, absolute=True)),
}
#: Fresh-seed service units checked against an in-process ``run_spec``.
SERVICE_REFERENCE_UNITS = 4
#: Calibration rule for end-to-end bounds (see ``spread``): twice the
#: widest same-seed spread, within [floor, MAX_BOUND].
SPREAD_MARGIN = 2.0
BOUND_FLOOR = 0.10
BOUND_FLOORS = {"setup_s": 0.20}
MAX_BOUND = 0.25
#: ``slowdown`` adds one reference loop per this many ``Router.tick``
#: calls: on fig5-cold's traced subset (about 358 000 calls in 4.5-5 s)
#: that is a drop of about 18%, the size of the fig5 drift.
SLOWDOWN_EVERY = 80


@dataclass
class Outcome:
    """One workload run: metric values, the samples behind each, and
    what the correctness checks found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    info: Dict[str, float] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.problems.append(what)
        self.failed += 1

    def end_to_end(self, setups: List[float], accesses: int,
                   node_cycles: int, wall: float, rss: List[float],
                   host: HostSpeed) -> None:
        """The declared end-to-end metrics, whose times are reference
        seconds (:mod:`hostspeed`), and the host-second numbers beside
        them."""
        wall_ref = host.reference_seconds(wall)
        self.metrics.update({
            "setup_s": host.reference_seconds(statistics.median(setups)),
            "accesses_per_ref_s": accesses / wall_ref,
            "node_cycles_per_ref_s": node_cycles / wall_ref,
            "peak_rss_mb": max(rss),
            "setup_host_s": statistics.median(setups),
            "node_cycles_per_s": node_cycles / wall,
            "wall_s": wall,
        })
        self.counts.update(dict.fromkeys(
            ("setup_s", "setup_host_s"), len(setups)))
        self.counts["peak_rss_mb"] = len(rss)
        self.info["host.ref_us"] = 1e6 * host.ref_s


def load_declared() -> Dict[str, List[Dict]]:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


class Workspace:
    """Per-run scratch directory, worker launches and the run deadline."""

    def __init__(self, workload: str, repeat: int):
        self.dir = RUN_DIR / f"{workload}-{os.getpid()}-{repeat}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self._tags = 0

    def env(self, jobs: int, src: Path = SRC) -> Dict[str, str]:
        """A child environment with its own, empty disk cache."""
        self._tags += 1
        cache = self.dir / f"cache{self._tags}"
        cache.mkdir()
        return procs.child_env(cache, jobs, src)

    def worker(self, mode: str, request: Dict, jobs: int,
               src: Path = SRC) -> procs.Child:
        env = self.env(jobs, src)
        log = self.dir / f"{mode}{self._tags}.log"
        return procs.run_worker(mode, request, env, log, self.deadline)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def check_digests(outcome: Outcome, records: Dict[str, Dict]) -> None:
    """Every record must carry the digest its spec had the first time."""
    for key, rec in records.items():
        first = outcome.digests.setdefault(key, rec["digest"])
        if first != rec["digest"]:
            outcome.fail(f"digest of {key} changed")


# --------------------------------------------------------------------------
# end-to-end runs
# --------------------------------------------------------------------------


def measure_campaign(workload: str, seed: int, space: Workspace) -> Outcome:
    """One pass of the workload's spec list, between set-up samples."""
    specs = wl.campaign_specs(workload, seed)
    request = {"specs": specs}
    setups, rss = [], []

    def sample_setup() -> None:
        child = space.worker("setup", request, JOBS)
        setups.append(child.setup_s)
        rss.append(child.maxrss_mb)

    with HostSpeed(space.dir) as host:
        for _ in range(CAMPAIGN_SETUPS // 2):
            sample_setup()
        child = space.worker("campaign", request, JOBS)
        out = child.result()
        setups.append(child.setup_s)
        rss.append(child.maxrss_mb)
        while len(setups) < CAMPAIGN_SETUPS:
            sample_setup()

    outcome = Outcome(attempted=len(specs))
    for key in out["failures"]:
        outcome.fail(f"{key} failed")
    check_digests(outcome, out["records"])
    if not out["failures"]:
        problems, science = wl.campaign_checks(workload, out["averages"])
        for problem in problems:
            outcome.fail(problem)
        if "paper_error_pp" in science:
            outcome.metrics["paper_error_pp"] = science.pop("paper_error_pp")
        outcome.info.update(science)
    records = out["records"].values()
    outcome.end_to_end(
        setups, sum(rec["accesses"] for rec in records),
        sum(rec["cycles"] * rec["nodes"] for rec in records),
        out["wall_s"], rss, host)
    completed = outcome.attempted - outcome.failed
    outcome.metrics["units_per_s"] = completed / out["wall_s"]
    outcome.counts["units_per_s"] = completed
    return outcome


def measure_service(seed: int, seconds: float, space: Workspace) -> Outcome:
    from service_load import Service, closed_loop, service_stats

    setups, rss = [], []
    plan = wl.service_plan(seed)

    def sample_setup() -> None:
        with Service(space.dir, space.env(JOBS), JOBS,
                     space.deadline) as service:
            setups.append(service.setup_s)
            rss.append(service.stop(space.deadline))

    with HostSpeed(space.dir) as host:
        for _ in range(SERVICE_SETUPS // 2):
            sample_setup()
        with Service(space.dir, space.env(JOBS), JOBS,
                     space.deadline) as service:
            setups.append(service.setup_s)
            wall, units = closed_loop(service, plan,
                                      time.perf_counter() + seconds)
            stats = service_stats(service)
            rss.append(service.stop(space.deadline))
        while len(setups) < SERVICE_SETUPS:
            sample_setup()

    outcome = Outcome(attempted=len(units))
    ok = [unit for unit in units if unit["status"] == "ok"]
    for unit in units:
        if unit["status"] != "ok":
            outcome.fail(f"service unit {unit['status']}: "
                             f"{unit.get('error', '')}")
    first_digest = {(u["client"], u["index"]): u["digest"]
                    for u in ok if u["first"] < 0}
    for unit in ok:
        key = wl.spec_key(unit["spec"])
        if unit["first"] >= 0:
            expected = first_digest.get((unit["client"], unit["first"]))
            if unit["digest"] != expected or not unit["cached"]:
                outcome.fail(f"repeat of {key} was not its first result")
        else:
            outcome.digests[key] = unit["digest"]
    reference = [spec for spec, first in plan[0]
                 if first < 0][:SERVICE_REFERENCE_UNITS]
    records = space.worker("serial", {"specs": reference}, 1).result()
    for key, rec in records["records"].items():
        if outcome.digests.get(key) != rec["digest"]:
            outcome.fail(f"service result of {key} is not run_spec's")

    latencies = [u["latency_s"] if u["status"] == "ok" else math.inf
                 for u in units]
    fresh = [u for u in ok if not u["cached"]]
    outcome.end_to_end(
        setups, sum(wl.accesses(u["spec"]) for u in fresh),
        sum(u["cycles"] * wl.nodes(u["spec"]) for u in fresh),
        wall, rss, host)
    outcome.metrics["units_per_s"] = len(ok) / wall
    outcome.counts["units_per_s"] = len(ok)
    outcome.info.update({f"service.{k}": v for k, v in stats.items()})
    for p in (50, 95):
        name = f"unit_latency_p{p}_ms"
        try:
            outcome.metrics[name] = 1e3 * ledger.percentile(latencies, p)
        except ValueError:
            continue  # too few samples beyond it to report
        outcome.counts[name] = len(latencies)
    return outcome


# --------------------------------------------------------------------------
# the traced run
# --------------------------------------------------------------------------


def per_call(agg: Dict[str, Dict], name: str, scale: float,
             field_name: str = "self_s") -> float:
    cell = agg[name]
    if not cell["count"]:
        raise ValueError(f"{name} was never called in the traced run")
    return scale * cell[field_name] / cell["count"]


def layer_metrics(plain: Dict, traced: Dict, parallel_wall: float,
                  loops: Dict[str, float],
                  probe: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the untraced and traced serial passes, the
    parallel pass of the same specs, the micro loops and the service
    probe."""
    agg = traced["aggregates"]
    serial_seconds = sum(plain["spec_seconds"].values())
    metrics = {
        "sim.step_self_us": per_call(agg, "SimKernel.step", 1e6),
        "sim.cycles": sum(r["cycles"] for r in plain["records"].values()),
        "noc.router_tick_us": per_call(agg, "Router.tick", 1e6),
        "noc.router_ticks": agg["Router.tick"]["count"],
        "noc.ni_tick_us": per_call(agg, "NetworkInterface.tick", 1e6),
        "noc.ni_ticks": agg["NetworkInterface.tick"]["count"],
        "noc.arrival_tick_us": per_call(agg, "ArrivalQueue.tick", 1e6),
        "noc.send_us": per_call(agg, "Network.send", 1e6),
        "core.disco_router_tick_us": per_call(agg, "DiscoRouter.tick", 1e6),
        "core.engine_tick_us":
            per_call(agg, "DiscoCompressorEngine.tick", 1e6),
        "core.engine_start_us":
            per_call(agg, "DiscoCompressorEngine.start", 1e6),
        "core.engine_jobs": agg["DiscoCompressorEngine.start"]["count"],
        "cmp.build_ms": per_call(agg, "CmpSystem.__init__", 1e3, "total_s"),
        "cmp.tile_tick_us": per_call(agg, "Tile.tick", 1e6),
        "cmp.bank_handle_us": per_call(agg, "HomeBank.handle", 1e6),
        "compression.memo_hit_ratio": 1.0 - (
            agg["CompressionAlgorithm.compress"]["count"]
            / agg["CachedCompressor.compress"]["count"]
        ),
        "workloads.trace_gen_ms":
            per_call(agg, "runner.generate_traces", 1e3, "total_s"),
        "runner.spec_overhead_ms": per_call(agg, "runner.run_spec", 1e3),
        "runner.parallel_efficiency":
            serial_seconds / (parallel_wall * JOBS),
        "trace_overhead_pct":
            100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0),
    }
    metrics.update(loops)
    metrics.update(probe)
    return metrics


def accounting_gap_pct(agg: Dict[str, Dict]) -> float:
    """How far the self times miss the traced ``run_spec`` total (0 when
    the accounting closes)."""
    root = agg["runner.run_spec"]["total_s"]
    selves = sum(cell["self_s"] for cell in agg.values())
    return 100.0 * abs(selves - root) / root


def measure_traced(workload: str, seed: int, space: Workspace) -> Outcome:
    from service_load import PROBE_SAMPLES, Service, probe, service_stats

    subset = wl.trace_subset(workload, seed)
    request = {"specs": subset}
    trace_out = RUN_DIR / workload / "trace.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    plain = space.worker("serial", request, 1).result()
    traced = space.worker(
        "traced", dict(request, trace_out=str(trace_out)), 1).result()
    parallel = space.worker("campaign", request, JOBS).result()
    loops = space.worker("micro", {}, 1).result()["metrics"]
    probe_spec = dict(wl.SERVICE_SPEC, seed=wl.BASE_SEED + seed)
    with Service(space.dir, space.env(JOBS), JOBS, space.deadline) as service:
        probed = probe(service, probe_spec)
        stats = service_stats(service)
        service.stop(space.deadline)

    outcome = Outcome(
        metrics=layer_metrics(plain, traced, parallel["wall_s"], loops,
                              probed),
        attempted=3 * len(subset) + 1 + PROBE_SAMPLES,
    )
    for run in (plain, traced, parallel):
        check_digests(outcome, run["records"])
    outcome.failed += len(parallel["failures"])
    outcome.counts = dict.fromkeys(outcome.metrics, len(subset))
    outcome.counts.update(dict.fromkeys(loops, micro.REPS))
    outcome.counts.update(dict.fromkeys(probed, PROBE_SAMPLES))
    outcome.info.update({
        "trace.accounting_gap_pct": accounting_gap_pct(traced["aggregates"]),
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        **{f"service.{k}": v for k, v in stats.items()},
    })
    return outcome


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def emit(measured: Dict[str, float], declared: List[Dict]) -> Dict:
    """The declared metrics, in declaration order; a declared metric the
    run did not measure is a bug in the benchmark."""
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in declared}


def columns(declared: List[Dict], trace: bool) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric a run prints and ledgers:
    the declared ones, then for end-to-end runs :data:`REPORTED`."""
    out = [(m["name"], m["unit"], m["better"]) for m in declared]
    if not trace:
        out += [(name, unit, better)
                for name, (unit, better, _) in REPORTED.items()]
    return out


def print_outcome(workload: str, repeat: int, outcome: Outcome,
                  metrics: List[Tuple[str, str, str]]) -> None:
    print(f"== {workload} (repeat {repeat}) ==")
    print(f"{'metric':34} {'value':>14} {'unit':8} {'n':>6}  should move")
    for name, unit, _ in metrics:
        if name in outcome.metrics:
            moves = layers.describe(name) if name in layers.TARGETS else ""
            print(f"{name:34} {outcome.metrics[name]:14.6g} {unit:8} "
                  f"{outcome.counts.get(name, 1):6d}  {moves}")
    for name, value in sorted(outcome.info.items()):
        print(f"  {name} = {value:.6g}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    for key, digest in sorted(outcome.digests.items()):
        print(f"  digest {workload} {key} {digest}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            repeat: int) -> Outcome:
    space = Workspace(workload, repeat)
    try:
        if trace:
            return measure_traced(workload, seed, space)
        if workload == "service-closed":
            return measure_service(seed, seconds, space)
        return measure_campaign(workload, seed, space)
    finally:
        space.close()


def run_main(argv: List[str]) -> int:
    declared_all = load_declared()
    parser = argparse.ArgumentParser(prog="bench.py")
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared_all["run_seconds"],
                        help="how long the service workload's clients "
                             "submit; a campaign runs its specs once")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="append this invocation to a ledger file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench.py: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    selected = args.workload or list(wl.WORKLOADS)
    trace = bool(args.trace)
    declared = declared_all["per_layer" if trace else "end_to_end"]
    metrics_of_run = columns(declared, trace)

    outcomes: Dict[str, List[Outcome]] = {w: [] for w in selected}
    for repeat in range(args.repeats):
        for workload in selected:
            outcome = measure(workload, args.seed, args.seconds, trace,
                              repeat)
            first = outcomes[workload][0] if outcomes[workload] else None
            if first is not None:
                for key, digest in outcome.digests.items():
                    if first.digests.get(key, digest) != digest:
                        outcome.fail(f"digest of {key} differs from "
                                         f"repeat 0")
            if not trace:
                outcome.metrics["failed_ratio"] = (
                    outcome.failed / max(1, outcome.attempted))
                outcome.counts["failed_ratio"] = outcome.attempted
            outcomes[workload].append(outcome)
            print_outcome(workload, repeat, outcome, metrics_of_run)

    if args.out is not None:
        host = ledger.host_fingerprint(ROOT)
        ledger.append(args.out, [
            ledger.make_entry(
                "trace" if trace else "run", workload, host,
                {name: (unit, better, [o.metrics[name] for o in runs])
                 for name, unit, better in metrics_of_run
                 if all(name in o.metrics for o in runs)},
                seed=args.seed, repeats=args.repeats,
                digests=runs[0].digests,
                info={k: [o.info.get(k) for o in runs]
                      for k in runs[0].info},
            )
            for workload, runs in outcomes.items()
        ])

    metrics: Dict[str, Dict] = {}
    for workload, runs in outcomes.items():
        medians = {m["name"]: statistics.median(
            o.metrics[m["name"]] for o in runs) for m in declared}
        prefix = "" if len(selected) == 1 else f"{workload}."
        for name, value in emit(medians, declared).items():
            metrics[prefix + name] = value
    every = [o for runs in outcomes.values() for o in runs]
    attempted = sum(o.attempted for o in every)
    failed = sum(o.failed for o in every)
    correct = failed == 0 and not any(o.problems for o in every)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# compare and drift
# --------------------------------------------------------------------------


def bounds() -> Dict[str, Bound]:
    """The bound of every end-to-end metric: declared, then reported."""
    out = {m["name"]: Bound(m["bound"])
           for m in load_declared()["end_to_end"]}
    for name, (_, _, bound) in REPORTED.items():
        out.setdefault(name, bound)
    return out


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = ledger.compare(ledger.load(args.parent), ledger.load(args.change),
                          bounds())
    print(f"{'workload':15} {'metric':34} {'verdict':11} {'parent':>12} "
          f"{'change':>12} {'wins':>7}")
    for row in rows:
        print(f"{row['workload']:15} {row['metric']:34} {row['verdict']:11} "
              f"{row['parent_median']:12.6g} {row['change_median']:12.6g} "
              f"{row['wins']:3d}/{row['pairs']:<3d}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def spread_main(argv: List[str]) -> int:
    """Print each (workload, metric)'s spread in one ledger, and the
    bound the calibration rule gives each declared end-to-end metric:
    :data:`SPREAD_MARGIN` times the widest spread over the workloads, at
    least the metric's floor and at most :data:`MAX_BOUND`.  The rule is
    meant for repeats of one seed; on a ledger of one run per seed the
    spreads are the seeds' own, which a bound must also cover."""
    parser = argparse.ArgumentParser(prog="bench.py spread")
    parser.add_argument("ledger", type=Path)
    parser.add_argument("--kind", default="run")
    args = parser.parse_args(argv)
    entries = [e for e in ledger.load(args.ledger)["entries"]
               if e["kind"] == args.kind]
    widest: Dict[str, float] = {}
    print(f"{'workload':15} {'metric':34} {'n':>3} {'median':>12} "
          f"{'spread':>7}")
    for (workload, name), row in sorted(
            ledger.rows({"entries": entries}).items()):
        s = ledger.summarize(row["samples"])
        spread = ledger.relative_spread(s)
        widest[name] = max(widest.get(name, 0.0), spread)
        print(f"{workload:15} {name:34} {s['n']:3d} {s['median']:12.6g} "
              f"{spread:7.4f}")
    for metric in load_declared()["end_to_end"]:
        name = metric["name"]
        if name in widest:
            floor = BOUND_FLOORS.get(name, BOUND_FLOOR)
            bound = min(MAX_BOUND,
                        max(floor, SPREAD_MARGIN * widest[name]))
            print(f"bound {name}: {bound:.3f} "
                  f"(widest spread {widest[name]:.4f})")
    return 0


def parse_tree(text: str) -> Tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not (Path(path) / "src" / "repro").is_dir():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=TREE with TREE/src/repro, got {text!r}")
    return label, Path(path).resolve()


def drift_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py drift")
    parser.add_argument("trees", nargs="+", type=parse_tree)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    # The trajectory's own order (benchmarks/common.py, BENCH_WORKLOADS).
    request = {"benchmarks": sorted(wl.FIG5_BENCHMARKS),
               "accesses_per_core": wl.FIGURE_ACCESSES}
    walls: Dict[str, List[float]] = {label: [] for label, _ in args.trees}
    averages: Dict[str, Dict] = {}
    for repeat in range(args.repeats):
        # Alternate the order so slow periods of the host hit every tree.
        order = args.trees if repeat % 2 == 0 else args.trees[::-1]
        for label, tree in order:
            space = Workspace(f"drift-{label}", repeat)
            try:
                out = space.worker("fig5", request, args.jobs,
                                   src=tree / "src").result()
            finally:
                space.close()
            walls[label].append(out["wall_s"])
            averages.setdefault(label, out["average"])
            print(f"{label} repeat {repeat}: {out['wall_s']:.3f} s",
                  flush=True)
    reference = next(iter(averages.values()))
    for label, samples in walls.items():
        s = ledger.summarize(samples)
        same = "same" if averages[label] == reference else "DIFFERENT"
        print(f"{label:12} median {s['median']:.3f} s  q1 {s['q1']:.3f}  "
              f"q3 {s['q3']:.3f}  n {s['n']}  fig5 averages {same}")
    if args.out is not None:
        host = ledger.host_fingerprint(ROOT)
        ledger.append(args.out, [
            ledger.make_entry(
                "drift", "fig5-cold", host,
                {"wall_s": ("s", "lower", walls[label])},
                label=label, jobs=args.jobs, repeats=args.repeats,
                info={"fig5_average": averages[label]},
            )
            for label, _ in args.trees
        ])
    return 0


def slowdown_main(argv: List[str]) -> int:
    """Run a workload's traced subset serially, alternately as it is and
    with one :func:`hostspeed.reference_loop` added to every ``--every``-th
    ``Router.tick`` call (both sides wrap ``Router.tick``, so only the
    added loops differ).  Each added loop costs exactly
    ``REFERENCE_LOOP_S`` reference seconds if the program's process runs
    the loop as fast as the samplers do, so the drop of
    ``node_cycles_per_ref_s`` it should cause is known; the command
    prints it beside the drop measured in reference and in host
    seconds."""
    parser = argparse.ArgumentParser(prog="bench.py slowdown")
    parser.add_argument("--workload", default="fig5-cold",
                        choices=wl.CAMPAIGNS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--every", type=int, default=SLOWDOWN_EVERY)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    request = {"specs": wl.trace_subset(args.workload, 0)}
    drops: Dict[str, List[float]] = {"expected": [], "reference": [],
                                     "host": []}
    print(f"{'pair':>4} {'plain ref_s':>11} {'slowed ref_s':>12} "
          f"{'expected':>8} {'measured':>8} {'as read':>8}")
    for pair in range(args.pairs):
        runs = {}
        # Alternate the order so slow periods of the host hit both sides.
        for every in (0, args.every) if pair % 2 == 0 else (args.every, 0):
            space = Workspace("slowdown", pair)
            try:
                with HostSpeed(space.dir) as host:
                    out = space.worker("serial", dict(
                        request, slow_router_every=every), 1).result()
            finally:
                space.close()
            runs[every] = (host.reference_seconds(out["wall_s"]),
                           out["wall_s"], out["injected"])
        (plain_ref, plain_host, _), (slow_ref, slow_host, injected) = (
            runs[0], runs[args.every])
        added = injected * REFERENCE_LOOP_S
        drops["expected"].append(added / (plain_ref + added))
        drops["reference"].append(1.0 - plain_ref / slow_ref)
        drops["host"].append(1.0 - plain_host / slow_host)
        print(f"{pair:4d} {plain_ref:11.3f} {slow_ref:12.3f} "
              + " ".join(f"{drops[k][-1]:8.3f}" for k in drops), flush=True)
    medians = {k: statistics.median(v) for k, v in drops.items()}
    print(f"median drop: expected {medians['expected']:.3f}, measured "
          f"{medians['reference']:.3f} in reference seconds, "
          f"{medians['host']:.3f} in host seconds")
    if args.out is not None:
        ledger.append(args.out, [ledger.make_entry(
            "slowdown", args.workload, ledger.host_fingerprint(ROOT),
            {f"{k}_drop": ("share", "lower", v) for k, v in drops.items()},
            every=args.every, pairs=args.pairs,
        )])
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["drift"]:
        return drift_main(argv[1:])
    if argv[:1] == ["spread"]:
        return spread_main(argv[1:])
    if argv[:1] == ["slowdown"]:
        return slowdown_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so every child is stopped and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
