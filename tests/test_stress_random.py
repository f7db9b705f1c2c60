"""Randomized full-system stress tests.

Short runs across random (scheme, workload, seed) combinations, each
checked against the invariants that must hold regardless of configuration:
packet conservation, protocol quiescence, single-writer coherence, and
end-to-end value integrity through compression.
"""

import random

import pytest

from repro.cmp import CmpSystem, SystemConfig, make_scheme
from repro.cmp.bank import DIR_M
from repro.cmp.schemes import SCHEME_NAMES
from repro.noc.config import FlowControl, NocConfig
from repro.workloads import PARSEC_BENCHMARKS, generate_traces, get_profile


def check_invariants(system):
    stats = system.network.stats
    assert stats.packets_injected == stats.packets_ejected
    assert system.network.quiescent()
    assert not system.events.has_work()
    for bank in system.banks:
        assert not bank.pending
        for addr, entry in bank.directory.items():
            if entry.state == DIR_M:
                holders = [
                    t.node
                    for t in system.tiles
                    if t.l1.lookup(addr) is not None
                ]
                assert holders == [entry.owner], hex(addr)
                line = system.tiles[entry.owner].l1.lookup(addr)
                assert line.state == "M"
    # Value integrity: M owners hold the latest committed value.
    pool = system.pool
    for bank in system.banks:
        for addr, entry in bank.directory.items():
            if entry.state == DIR_M:
                line = system.tiles[entry.owner].l1.lookup(addr)
                assert line.data == pool.line(addr), hex(addr)


def _combos(n=10, seed=2024):
    rng = random.Random(seed)
    names = sorted(PARSEC_BENCHMARKS)
    out = []
    for i in range(n):
        out.append(
            (
                rng.choice(SCHEME_NAMES),
                rng.choice(names),
                rng.randrange(1, 10_000),
            )
        )
    return out


@pytest.mark.parametrize("scheme,workload,seed", _combos())
def test_random_combination(scheme, workload, seed):
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(
        get_profile(workload), config.n_cores, 120, seed=seed
    )
    system = CmpSystem(
        config, make_scheme(scheme), traces, warmup_fraction=0.2
    )
    result = system.run()
    assert result.cycles > 0
    check_invariants(system)


@pytest.mark.parametrize(
    "algorithm", ["delta", "fpc", "sc2", "bdi", "cpack"]
)
def test_disco_with_every_algorithm(algorithm):
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(get_profile("x264"), config.n_cores, 100, seed=5)
    system = CmpSystem(config, make_scheme("disco", algorithm=algorithm),
                       traces)
    system.run()
    check_invariants(system)


def test_full_system_with_vct_flow_control():
    """The §3.3-A alternative: whole-packet residency via VCT."""
    from dataclasses import replace

    config = replace(
        SystemConfig.scaled_4x4(),
        noc=NocConfig(flow_control=FlowControl.VIRTUAL_CUT_THROUGH,
                      vc_depth=10),
    )
    traces = generate_traces(get_profile("canneal"), 16, 150, seed=9)
    system = CmpSystem(config, make_scheme("disco"), traces)
    result = system.run()
    check_invariants(system)
    # With whole-packet residency the engine can run non-streaming jobs.
    assert result.network.compressions >= result.network.separate_compressions


def test_full_system_with_high_sharing():
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(get_profile("canneal"), 16, 200, seed=13)
    system = CmpSystem(config, make_scheme("disco"), traces)
    system.run()
    check_invariants(system)


def test_deep_window_core_configuration():
    from dataclasses import replace

    config = replace(SystemConfig.scaled_4x4(), core_window=8)
    traces = generate_traces(get_profile("streamcluster"), 16, 150, seed=3)
    system = CmpSystem(config, make_scheme("disco"), traces)
    system.run()
    check_invariants(system)
