"""Tests of the ledger itself: ``python -m pytest benchmarks/ledger -q``.

The end-to-end cases shrink the workloads to 2x2 meshes and a few dozen
accesses, so they exercise the real child processes and the real
service in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

import bench
import layers
import ledger
import procs
import workloads as wl
from hostspeed import HostSpeed
from spans import SpanRecorder

sys.path.insert(0, str(procs.SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = dict(workload="canneal", width=2, height=2, accesses_per_core=60)


@pytest.fixture
def declared():
    return bench.load_declared()


@pytest.fixture
def space(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RUN_DIR", tmp_path / "run")
    workspace = bench.Workspace("test", 0)
    yield workspace
    workspace.close()


def tiny_specs(workload, seed):
    return [dict(TINY, scheme=scheme, seed=wl.BASE_SEED + seed)
            for scheme in wl.FIG5_SCHEMES]


# -- declarations ------------------------------------------------------------


def test_metric_and_workload_names_are_well_formed(declared):
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_declared_workloads_are_the_benchmarks(declared):
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move(declared):
    assert set(layers.TARGETS) == {m["name"] for m in declared["per_layer"]}
    end_to_end = set(bench.bounds())
    for name, target in layers.TARGETS.items():
        assert set(target.metrics) <= end_to_end, name
        assert set(target.workloads) <= set(wl.WORKLOADS), name
        assert bool(target.metrics) == bool(target.workloads), name
    assert layers.THROUGHPUT in {m["name"] for m in declared["end_to_end"]}


def test_bounds_follow_the_calibration_rule(declared):
    bound = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    # setup_s gets the largest bound; none is looser than a quarter.
    assert bound["setup_s"] == max(bound.values()) <= bench.MAX_BOUND
    # A 17% throughput drop (the fig5 drift) must read as regressed.
    assert bound[layers.THROUGHPUT] < 0.17


def test_emit_refuses_an_unmeasured_metric(declared):
    measured = {m["name"]: 1.0 for m in declared["end_to_end"]}
    assert list(bench.emit(measured, declared["end_to_end"])) == list(measured)
    del measured["setup_s"]
    with pytest.raises(KeyError):
        bench.emit(measured, declared["end_to_end"])


def test_campaign_emits_exactly_the_end_to_end_metrics(
        declared, space, monkeypatch):
    monkeypatch.setattr(wl, "campaign_specs", tiny_specs)
    outcome = bench.measure_campaign("fig5-cold", 0, space)
    names = {name for name, _, _ in bench.columns(declared["end_to_end"],
                                                  trace=False)}
    assert set(outcome.metrics) == names - {
        "unit_latency_p50_ms", "unit_latency_p95_ms", "failed_ratio"}
    assert outcome.attempted == len(wl.FIG5_SCHEMES)
    assert outcome.failed == 0, outcome.problems
    assert all(outcome.metrics[m["name"]] > 0 for m in declared["end_to_end"])


def test_service_emits_exactly_the_end_to_end_metrics(
        declared, space, monkeypatch):
    monkeypatch.setattr(wl, "SERVICE_SPEC", dict(TINY, scheme="disco"))
    monkeypatch.setattr(wl, "SERVICE_UNITS_PER_CLIENT", 12)
    # Long enough for both clients to run out of submissions.
    outcome = bench.measure_service(0, 60.0, space)
    names = {name for name, _, _ in bench.columns(declared["end_to_end"],
                                                  trace=False)}
    # 24 samples: too few for a p95; failed_ratio is added by run_main.
    assert set(outcome.metrics) == names - {
        "paper_error_pp", "unit_latency_p95_ms", "failed_ratio"}
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == 24
    assert outcome.info["service.cache_hit_ratio"] == pytest.approx(0.25)


def test_traced_run_emits_every_layer_metric_and_closes(
        declared, space, monkeypatch):
    monkeypatch.setattr(wl, "trace_subset", lambda workload, seed: [
        dict(TINY, scheme=scheme, seed=wl.BASE_SEED)
        for scheme in ("cc", "disco")
    ])
    monkeypatch.setattr(wl, "SERVICE_SPEC", dict(TINY, scheme="disco"))
    outcome = bench.measure_traced("fig5-cold", 0, space)
    assert set(outcome.metrics) == {m["name"] for m in declared["per_layer"]}
    assert outcome.failed == 0, outcome.problems
    assert outcome.info["trace.accounting_gap_pct"] < 10.0
    trace = json.loads(
        (bench.RUN_DIR / "fig5-cold" / "trace.json").read_text())
    roots = [s for s in trace["spans"] if s["name"] == "runner.run_spec"]
    assert len(roots) == 2 and all(s["parent"] is None for s in roots)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(bench.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(procs.ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    run = subprocess.run(
        [sys.executable, "benchmarks/ledger/bench.py", "--workload",
         "fig5-cold", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout == ""


def test_host_speed_samples_every_cpu_and_stops(tmp_path):
    with HostSpeed(tmp_path) as host:
        pass  # even an empty block gets each sampler's first sample
    assert 0 < host.ref_s < 0.1
    assert all(proc.poll() is not None for proc in host._procs)
    assert len(list(tmp_path.glob("hostspeed-*.txt"))) == len(
        os.sched_getaffinity(0))


# -- workloads ---------------------------------------------------------------


def test_service_plan_repeats_only_earlier_fresh_units():
    plan = wl.service_plan(3)
    seeds = set()
    for entries in plan:
        for index, (spec, first) in enumerate(entries):
            if first < 0:
                assert spec["seed"] not in seeds
                seeds.add(spec["seed"])
            else:
                assert 0 <= first < index and entries[first][1] < 0
                assert entries[first][0] == spec
    repeats = sum(first >= 0 for entries in plan for _, first in entries)
    assert repeats * wl.SERVICE_REPEAT_EVERY == sum(map(len, plan))
    assert wl.service_plan(3) == plan


# -- statistics and comparison -------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert ledger.percentile(range(200), 95) == 189
    with pytest.raises(ValueError):
        ledger.percentile(range(199), 95)
    assert ledger.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        ledger.percentile(range(19), 50)


def entry(workload, name, better, samples):
    return ledger.make_entry(
        "run", workload, {}, {name: ("s", better, samples)})


def verdict_of(parent, change, better="lower", bound=0.1, name="m",
               bounds=None):
    pair = [{"entries": [entry("w", name, better, samples)]}
            for samples in (parent, change)]
    if bounds is None:
        bounds = {} if bound is None else {name: ledger.Bound(bound)}
    (row,) = ledger.compare(pair[0], pair[1], bounds)
    return row["verdict"]


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


def test_compare_improved_needs_nine_of_ten_pairs():
    nine = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert verdict_of(PARENT, nine) == "improved"
    eight = [p - 0.5 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert verdict_of(PARENT, eight) == "unchanged"


def test_compare_improved_needs_ten_pairs():
    assert verdict_of(PARENT[:9], [p - 0.5 for p in PARENT[:9]]) == (
        "unchanged")


def test_compare_improved_needs_a_gap_wider_than_the_parent_spread():
    tiny_gain = [p - 0.01 for p in PARENT]
    assert verdict_of(PARENT, tiny_gain) == "unchanged"


def test_compare_regressed_and_unresolved():
    assert verdict_of(PARENT, [p * 1.2 for p in PARENT]) == "regressed"
    wide = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5, 9.0, 11.0]
    assert verdict_of(PARENT, wide) == "unresolved"
    assert verdict_of(PARENT, wide, bound=1.0) == "unchanged"


def test_compare_higher_is_better_and_per_layer_mirror():
    assert verdict_of(PARENT, [p + 1 for p in PARENT], "higher") == (
        "improved")
    assert verdict_of(PARENT, [p - 1 for p in PARENT], "higher",
                      bound=None) == "regressed"


def test_compare_catches_a_drift_sized_throughput_drop(declared):
    """The fig5 drift was about 17% less throughput; with the declared
    bound and a calibration-sized spread it reads as regressed."""
    parent = [2.0e5 * (1 + 0.02 * ((i * 7) % 5 - 2)) for i in range(10)]
    change = [p * 0.83 for p in parent]
    name = layers.THROUGHPUT
    assert verdict_of(parent, change, "higher", name=name,
                      bounds=bench.bounds()) == "regressed"
    assert verdict_of(parent, [p * 0.95 for p in parent], "higher",
                      name=name, bounds=bench.bounds()) == "unchanged"


def test_compare_judges_the_reported_end_to_end_metrics():
    p95 = [180.0, 182.0, 178.0, 185.0, 181.0, 179.0, 183.0, 180.5, 184.0,
           177.0]
    worse = [p * 1.2 for p in p95]
    assert verdict_of(p95, worse, name="unit_latency_p95_ms",
                      bounds=bench.bounds()) == "regressed"
    assert verdict_of(p95, [p * 1.1 for p in p95], name="unit_latency_p95_ms",
                      bounds=bench.bounds()) == "unchanged"
    # Absolute bounds: paper_error_pp may move 0.01 pp, failed_ratio not at all.
    assert verdict_of([1.03] * 10, [1.05] * 10, name="paper_error_pp",
                      bounds=bench.bounds()) == "regressed"
    assert verdict_of([0.0] * 10, [0.0] * 9 + [0.05], name="failed_ratio",
                      bounds=bench.bounds()) == "unchanged"
    assert verdict_of([0.0] * 10, [0.05] * 10, name="failed_ratio",
                      bounds=bench.bounds()) == "regressed"


def test_ledger_file_round_trip(tmp_path):
    path = tmp_path / "ledger.json"
    ledger.append(path, [entry("w", "m", "lower", [1.0, 2.0, 3.0])])
    ledger.append(path, [entry("w", "m", "lower", [4.0])])
    rows = ledger.rows(ledger.load(path))
    assert rows[("w", "m")]["samples"] == [1.0, 2.0, 3.0, 4.0]
    first = ledger.load(path)["entries"][0]["metrics"]["m"]
    assert (first["median"], first["n"]) == (2.0, 3)


# -- tracing -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_arithmetic_on_nested_fakes():
    clock = FakeClock()

    class Inner:
        def work(self, cost):
            clock.now += cost

        def fail(self):
            clock.now += 4.0
            raise RuntimeError("inner failure")

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def run(self):
            clock.now += 1.0
            self.inner.work(2.0)
            clock.now += 0.5
            self.inner.work(3.0)
            return "done"

    recorder = SpanRecorder(clock=clock)
    recorder.wrap(Outer, "run", "Outer.run", keep=True)
    recorder.wrap(Inner, "work", "Inner.work")
    recorder.wrap(Inner, "fail", "Inner.fail")
    recorder.spec_id = "s1"
    try:
        assert Outer().run() == "done"
        with pytest.raises(RuntimeError):
            Inner().fail()
    finally:
        recorder.unwrap_all()
    assert Inner.__dict__["work"].__name__ == "work"
    agg = recorder.aggregates()
    assert agg["Outer.run"] == {"count": 1, "total_s": 6.5, "self_s": 1.5}
    assert agg["Inner.work"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert agg["Inner.fail"] == {"count": 1, "total_s": 4.0, "self_s": 4.0}
    (span,) = recorder.spans
    assert (span["parent"], span["spec"], span["dur_s"], span["self_s"]) == (
        None, "s1", 6.5, 1.5)
    nested = {"runner.run_spec": agg["Outer.run"],
              "Inner.work": agg["Inner.work"]}
    assert bench.accounting_gap_pct(nested) == 0


def test_kept_spans_nest_by_parent_id():
    clock = FakeClock()
    module = types.SimpleNamespace()

    def leaf():
        clock.now += 1.0

    def outer():
        module.leaf()
        module.leaf()

    module.leaf, module.outer = leaf, outer
    recorder = SpanRecorder(clock=clock)
    recorder.wrap(module, "leaf", "leaf", keep=True)
    recorder.wrap(module, "outer", "outer", keep=True)
    try:
        module.outer()
    finally:
        recorder.unwrap_all()
    assert module.leaf is leaf
    outer_span, *leaves = recorder.spans
    assert outer_span["name"] == "outer" and outer_span["parent"] is None
    assert [s["parent"] for s in leaves] == [outer_span["id"]] * 2
    assert [s["start_s"] for s in leaves] == [0.0, 1.0]


def test_traced_spec_keeps_its_digest(tmp_path, monkeypatch):
    import worker
    from repro.experiments import RunSpec, clear_cache, runner
    from repro.experiments.runner import result_digest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    spec = RunSpec(scheme="disco", **TINY)
    clear_cache()
    plain = result_digest(runner.run_spec(spec))
    recorder = SpanRecorder()
    worker.install(recorder)
    try:
        clear_cache()
        traced = result_digest(runner.run_spec(spec))
    finally:
        recorder.unwrap_all()
        clear_cache()
    assert traced == plain
    assert recorder.aggregates()["Router.tick"]["count"] > 0


def test_slowed_router_adds_known_work_and_keeps_the_digest(
        tmp_path, monkeypatch):
    import worker
    from repro.experiments import RunSpec, clear_cache, runner
    from repro.experiments.runner import result_digest
    from repro.noc.router import Router

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    spec = RunSpec(scheme="disco", **TINY)
    clear_cache()
    plain = result_digest(runner.run_spec(spec))
    tick = Router.tick
    count = worker.slow_router(5)
    try:
        clear_cache()
        slowed = result_digest(runner.run_spec(spec))
    finally:
        Router.tick = tick
        clear_cache()
    assert slowed == plain
    assert count["injected"] == count["calls"] // 5 > 0
