"""Micro loops: one public call per layer, timed in a tight loop.

Each loop runs a few times and reports the median time per operation.
They complement the traced run where a layer's cost per call is too
small to time from outside, or where a workload never reaches the call
at all (the eight compression algorithms, admission control).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

REPS = 5


def _per_op(run: Callable[[], int]) -> float:
    """Median seconds per operation; ``run`` returns its operation count."""
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        ops = run()
        samples.append((time.perf_counter() - start) / ops)
    return statistics.median(samples)


class _Periodic:
    """A component that sleeps and wakes every ``period`` cycles."""

    def __init__(self, offset: int, period: int):
        self.offset = offset
        self.period = period

    def has_work(self) -> bool:
        return True

    def tick(self, cycle: int) -> None:
        pass

    def next_wake(self, cycle: int) -> int:
        return cycle + self.period - (cycle - self.offset) % self.period


def kernel() -> Dict[str, float]:
    from repro.sim.component import CallbackComponent
    from repro.sim.kernel import SimKernel

    components = 256
    busy = SimKernel()
    for index in range(components):
        busy.register(CallbackComponent(lambda cycle: None, f"noop{index}"))
    cycles = 200

    def sweep_busy() -> int:
        for _ in range(cycles):
            busy.step()
        return cycles * components

    idle = SimKernel()
    for index in range(components):
        idle.register(_Periodic(index % 64, 64))
    idle_cycles = 4096

    def sweep_idle() -> int:
        for _ in range(idle_cycles):
            idle.step()
        return idle_cycles

    return {
        "sim.noop_wake_ns": 1e9 * _per_op(sweep_busy),
        "sim.idle_step_ns": 1e9 * _per_op(sweep_idle),
    }


def noc() -> Dict[str, float]:
    from repro.noc import Network, NocConfig
    from repro.noc.traffic import SyntheticTraffic, TrafficConfig

    cycles = 2000

    def uniform() -> int:
        network = Network(NocConfig(width=4, height=4))
        SyntheticTraffic(
            network,
            TrafficConfig(pattern="uniform", injection_rate=0.3, seed=3),
        ).run(cycles, drain=False)
        return network.stats.link_flits

    return {"noc.ns_per_link_flit": 1e9 * _per_op(uniform)}


def compression() -> Dict[str, float]:
    from repro.compression.base import CachedCompressor
    from repro.compression.registry import available_algorithms, get_algorithm
    from repro.workloads.corpus import sample_corpus
    from repro.workloads.profiles import PARSEC_BENCHMARKS

    corpus = sample_corpus(
        [PARSEC_BENCHMARKS[name] for name in sorted(PARSEC_BENCHMARKS)],
        lines_per_profile=32,
    )
    out: Dict[str, float] = {}
    for name in available_algorithms():
        algorithm = get_algorithm(name, cached=False)
        train = getattr(algorithm, "train", None)
        if train is not None:
            train(corpus)
        encoded = [algorithm.compress(line) for line in corpus]
        for line, packed in zip(corpus, encoded):
            if algorithm.decompress(packed) != line:
                raise AssertionError(f"{name} does not round-trip")

        def encode(algorithm=algorithm) -> int:
            for line in corpus:
                algorithm.compress(line)
            return len(corpus)

        def decode(algorithm=algorithm, encoded=encoded) -> int:
            for packed in encoded:
                algorithm.decompress(packed)
            return len(encoded)

        out[f"compression.{name}.compress_us"] = 1e6 * _per_op(encode)
        out[f"compression.{name}.decompress_us"] = 1e6 * _per_op(decode)

    memo = CachedCompressor(get_algorithm("delta", cached=False))
    for line in corpus:
        memo.compress(line)

    def hits() -> int:
        for line in corpus:
            memo.compress(line)
        return len(corpus)

    out["compression.memo_hit_us"] = 1e6 * _per_op(hits)
    return out


def cache_and_workloads() -> Dict[str, float]:
    """L1 and bank access on a built 2x2 system, and value generation."""
    from repro.cache.l1 import HIT, STATE_M, STATE_S
    from repro.cmp.schemes import make_scheme
    from repro.cmp.system import CmpSystem
    from repro.experiments import RunSpec
    from repro.workloads.corpus import ValuePool
    from repro.workloads.trace import generate_traces

    spec = RunSpec(scheme="disco", workload="canneal", width=2, height=2,
                   accesses_per_core=800)
    config = spec.config()
    traces = generate_traces(spec.profile(), config.n_cores,
                             spec.accesses_per_core, seed=spec.seed)
    system = CmpSystem(config, make_scheme(spec.scheme), traces)

    l1 = system.tiles[0].l1
    trace = [(a.address, a.is_write) for a in traces.traces[0]]
    for addr, is_write in trace:
        if l1.access(addr, is_write) != HIT:
            l1.fill(addr, traces.pool.line(addr),
                    STATE_M if is_write else STATE_S)

    def l1_pass() -> int:
        for addr, is_write in trace:
            l1.access(addr, is_write)
        return len(trace)

    bank = system.banks[0]
    homed = [addr for addr in sorted(traces.touched_addresses())
             if config.home_node(addr) == 0]

    def bank_pass() -> int:
        for addr in homed:
            bank.array.lookup(addr)
        return len(homed)

    profile = spec.profile()
    fresh = 4000
    seeds = iter(range(10**6))

    def value_lines() -> int:
        pool = ValuePool(profile, seed=next(seeds))
        for addr in range(fresh):
            pool.line(addr)
        return fresh

    return {
        "cache.l1_access_ns": 1e9 * _per_op(l1_pass),
        "cache.bank_lookup_ns": 1e9 * _per_op(bank_pass),
        "workloads.value_line_us": 1e6 * _per_op(value_lines),
    }


def runner_and_service() -> Dict[str, float]:
    """A disk-cache hit through ``run_spec`` (needs ``REPRO_CACHE_DIR``)
    and one admission decision."""
    from repro.experiments import RunSpec, clear_cache, run_spec
    from repro.service.admission import AdmissionController

    spec = RunSpec(scheme="disco", workload="canneal", width=2, height=2,
                   accesses_per_core=50)
    run_spec(spec)

    def disk_hits() -> int:
        for _ in range(20):
            clear_cache()
            run_spec(spec)
        return 20

    controller = AdmissionController(rate=1e12, burst=1e12)
    decisions = 20000

    def admit() -> int:
        for _ in range(decisions):
            controller.admit("ledger", 1, 0)
        return decisions

    return {
        "runner.disk_hit_ms": 1e3 * _per_op(disk_hits),
        "service.admit_us": 1e6 * _per_op(admit),
    }


def run_all() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for loop in (kernel, noc, compression, cache_and_workloads,
                 runner_and_service):
        out.update(loop())
    return out
