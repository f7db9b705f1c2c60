"""The ledger's child process: one fresh interpreter per measurement.

Usage: ``python worker.py MODE < request.json``.  The worker imports the
program, builds its inputs and prints ``READY``; the parent times set-up
up to that line.  It then does the work and prints one JSON line.

Modes:

- ``setup``: stop after ``READY`` (extra set-up samples);
- ``campaign``: resolve the specs in one ``run_specs`` batch, fanned out
  over ``REPRO_JOBS`` workers, as ``fig5()`` and ``fig6()`` do;
- ``serial``: ``run_spec`` each spec in turn, timing each; with
  ``slow_router_every`` in the request, ``Router.tick`` is slowed by a
  known amount first (:func:`slow_router`, for ``bench.py slowdown``);
- ``traced``: ``serial`` with the public callables in :data:`TRACED`
  wrapped; writes ``trace.json``;
- ``micro``: the loops in :mod:`micro`;
- ``fig5``: ``fig5()`` itself at the default seed.  It uses only names
  that exist at every commit since the runner gained its cache, so the
  drift measurement can run it against old source trees.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List

from workloads import accesses, nodes, spec_key

#: (module, class or None for a module function, attribute, keep spans).
TRACED = (
    ("repro.noc.router", "Router", "tick", False),
    ("repro.core.disco_router", "DiscoRouter", "tick", False),
    ("repro.noc.interface", "NetworkInterface", "tick", False),
    ("repro.noc.network", "ArrivalQueue", "tick", False),
    ("repro.noc.network", "Network", "send", False),
    ("repro.core.engine", "DiscoCompressorEngine", "tick", False),
    ("repro.core.engine", "DiscoCompressorEngine", "start", False),
    ("repro.cmp.tile", "Tile", "tick", False),
    ("repro.cmp.bank", "HomeBank", "handle", False),
    ("repro.compression.base", "CachedCompressor", "compress", False),
    ("repro.compression.base", "CompressionAlgorithm", "compress", False),
    ("repro.sim.kernel", "SimKernel", "step", False),
    ("repro.cmp.system", "CmpSystem", "__init__", True),
    ("repro.cmp.system", "CmpSystem", "run", True),
    ("repro.experiments.runner", None, "generate_traces", True),
    ("repro.experiments.runner", None, "run_spec", True),
)


def ready() -> None:
    print("READY", flush=True)


def record(spec: Dict, result) -> Dict:
    from repro.experiments.runner import result_digest

    return {
        "digest": result_digest(result),
        "cycles": result.cycles,
        "nodes": nodes(spec),
        "accesses": accesses(spec),
        "avg_miss_latency": result.avg_miss_latency,
    }


def figure_averages(specs: List[Dict], records: Dict[str, Dict]) -> Dict:
    """Fig. 5's aggregation per algorithm (latency normalised to ideal,
    geometric mean per scheme) for every algorithm run with ``ideal``."""
    from repro.experiments.report import geomean, normalize

    raw: Dict[str, Dict[str, Dict[str, float]]] = {}
    for spec in specs:
        latency = records[spec_key(spec)]["avg_miss_latency"]
        row = raw.setdefault(spec.get("algorithm", "delta"), {})
        row.setdefault(spec["workload"], {})[spec["scheme"]] = latency
    averages = {}
    for algorithm, table in raw.items():
        if not all("ideal" in row for row in table.values()):
            continue
        normalized = [normalize(row, "ideal") for row in table.values()]
        averages[algorithm] = {
            scheme: geomean(row[scheme] for row in normalized)
            for scheme in normalized[0]
        }
    return averages


def campaign(request: Dict) -> Dict:
    from repro.experiments import RunSpec, run_specs
    from repro.experiments.runner import RunnerError

    specs = [RunSpec(**spec) for spec in request["specs"]]
    ready()
    start = time.perf_counter()
    try:
        results = run_specs(specs)
        failures = {}
    except RunnerError as exc:
        results, failures = exc.completed, exc.failures
    wall = time.perf_counter() - start
    records = {
        spec_key(d): record(d, results[s])
        for d, s in zip(request["specs"], specs) if s in results
    }
    return {
        "wall_s": wall,
        "records": records,
        "failures": [spec_key(d) for d, s in zip(request["specs"], specs)
                     if s in failures],
        "averages": {} if failures else figure_averages(
            request["specs"], records),
    }


def slow_router(every: int) -> Dict[str, int]:
    """Wrap ``Router.tick`` so that every ``every``-th call (none when 0)
    first runs one :func:`hostspeed.reference_loop`: a slowdown of the
    program whose cost in reference seconds is known.  Returns the live
    count of added loops."""
    from hostspeed import reference_loop
    from repro.noc.router import Router

    tick = Router.tick
    count = {"calls": 0, "injected": 0}

    @functools.wraps(tick)
    def slowed(self, *args, **kwargs):
        count["calls"] += 1
        if every and count["calls"] % every == 0:
            count["injected"] += 1
            reference_loop()
        return tick(self, *args, **kwargs)

    Router.tick = slowed
    return count


def serial(request: Dict, recorder=None) -> Dict:
    from repro.experiments import RunSpec
    from repro.experiments import runner

    specs = [RunSpec(**spec) for spec in request["specs"]]
    slowed = None
    if "slow_router_every" in request:
        slowed = slow_router(request["slow_router_every"])
    ready()
    records, seconds = {}, {}
    start = time.perf_counter()
    for data, spec in zip(request["specs"], specs):
        key = spec_key(data)
        if recorder is not None:
            recorder.spec_id = key
        began = time.perf_counter()
        # Looked up on the module so the traced run's wrapper is called.
        result = runner.run_spec(spec)
        seconds[key] = time.perf_counter() - began
        records[key] = record(data, result)
    return {
        "wall_s": time.perf_counter() - start,
        "records": records,
        "spec_seconds": seconds,
        "injected": slowed["injected"] if slowed else 0,
    }


def install(recorder) -> None:
    """Wrap every callable in :data:`TRACED`; names are ``Class.attr``,
    or ``runner.attr`` for the runner's module functions."""
    for module_name, owner, attr, keep in TRACED:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        name = f"{owner}.{attr}" if owner else f"runner.{attr}"
        recorder.wrap(target, attr, name, keep=keep)


def traced(request: Dict) -> Dict:
    from spans import SpanRecorder

    recorder = SpanRecorder()
    install(recorder)
    try:
        out = serial(request, recorder)
    finally:
        recorder.unwrap_all()
    trace = recorder.to_json()
    trace["specs"] = sorted(out["records"])
    with open(request["trace_out"], "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    out["aggregates"] = trace["aggregates"]
    return out


def micro(request: Dict) -> Dict:
    import micro as loops

    ready()
    return {"metrics": loops.run_all()}


def setup(request: Dict) -> Dict:
    from repro.experiments import RunSpec

    for spec in request["specs"]:
        RunSpec(**spec)
    ready()
    return {}


def fig5(request: Dict) -> Dict:
    from repro.experiments.fig5 import fig5 as run_fig5

    ready()
    start = time.perf_counter()
    result = run_fig5(workloads=request["benchmarks"],
                      accesses_per_core=request["accesses_per_core"])
    return {"wall_s": time.perf_counter() - start, "average": result.average}


MODES = {
    "setup": setup,
    "campaign": campaign,
    "serial": serial,
    "traced": traced,
    "micro": micro,
    "fig5": fig5,
}


if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.load(sys.stdin))
    print(json.dumps(result), flush=True)
