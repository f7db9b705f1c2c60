"""Full-system integration tests: every scheme completes, conserves
packets, keeps coherence invariants and flows real data end-to-end."""

import pytest

from repro.cmp import CmpSystem, SystemConfig, make_scheme
from repro.cmp.bank import DIR_M, DIR_S
from repro.cmp.schemes import SCHEME_NAMES
from repro.workloads import generate_traces, get_profile

ACCESSES = 200  # small but exercises every protocol path


def run_system(scheme="baseline", workload="bodytrack", seed=11,
               accesses=ACCESSES, algorithm="delta", **sys_kwargs):
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(
        get_profile(workload), config.n_cores, accesses, seed=seed
    )
    system = CmpSystem(
        config, make_scheme(scheme, algorithm=algorithm), traces, **sys_kwargs
    )
    return system, system.run()


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_all_schemes_complete(scheme):
    system, result = run_system(scheme)
    assert all(tile.core.done() for tile in system.tiles)
    assert result.cycles > 0
    assert result.total_primary_misses > 0
    assert result.avg_miss_latency > 0


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_packet_conservation(scheme):
    system, result = run_system(scheme)
    stats = system.network.stats
    assert stats.packets_injected == stats.packets_ejected
    assert not system.events.has_work()
    assert system.network.quiescent()


def test_coherence_invariants_at_end():
    """At quiescence: one M owner max, dir owner actually holds the line."""
    system, _ = run_system("baseline", workload="canneal")
    for bank in system.banks:
        assert not bank.pending
        for addr, entry in bank.directory.items():
            if entry.state == DIR_M:
                line = system.tiles[entry.owner].l1.lookup(addr)
                assert line is not None and line.state == "M", hex(addr)
                holders = [
                    t.node for t in system.tiles if t.l1.lookup(addr)
                ]
                assert holders == [entry.owner]
            elif entry.state == DIR_S:
                for tile in system.tiles:
                    line = tile.l1.lookup(addr)
                    if line is not None:
                        assert line.state == "S"
                        assert tile.node in entry.sharers


def test_value_flow_end_to_end():
    """The last committed store value for a line is what the system holds."""
    system, _ = run_system("baseline", workload="dedup")
    pool = system.pool
    for bank in system.banks:
        for addr, entry in bank.directory.items():
            expected = pool.line(addr)  # pool tracks latest committed value
            if entry.state == DIR_M:
                line = system.tiles[entry.owner].l1.lookup(addr)
                assert line.data == expected, hex(addr)
            else:
                stored = bank.array.lookup(addr, touch=False)
                if stored is not None:
                    assert stored.data == expected, hex(addr)


def test_disco_value_flow_with_compression():
    """Same value-flow invariant with in-network compression active."""
    system, result = run_system("disco", workload="canneal")
    assert result.network.compressions + result.counters_full[
        "bank_compressions"
    ] > 0
    pool = system.pool
    mismatches = 0
    for bank in system.banks:
        for addr, entry in bank.directory.items():
            if entry.state == DIR_M:
                line = system.tiles[entry.owner].l1.lookup(addr)
                assert line.data == pool.line(addr), hex(addr)
            else:
                stored = bank.array.lookup(addr, touch=False)
                if stored is not None and stored.data != pool.line(addr):
                    mismatches += 1
    assert mismatches == 0


def test_determinism():
    _, a = run_system("disco", seed=5)
    _, b = run_system("disco", seed=5)
    assert a.cycles == b.cycles
    assert a.total_miss_latency == b.total_miss_latency
    assert a.counters_full == b.counters_full


def test_seed_changes_results():
    _, a = run_system("baseline", seed=5)
    _, b = run_system("baseline", seed=6)
    assert a.cycles != b.cycles


def test_warmup_snapshot_mechanics():
    system, result = run_system("baseline", warmup_fraction=0.5)
    assert result.measure_start_cycle > 0
    assert result.measured_cycles < result.cycles
    assert result.measured_primary_misses <= result.total_primary_misses
    for key, value in result.counters_measured.items():
        assert value <= result.counters_full[key], key
        assert value >= 0, key


def test_compressed_llc_holds_more_lines():
    """Under capacity pressure the compressed LLC retains more lines."""
    config = SystemConfig.scaled_4x4(l2_sets_per_bank=8)  # 1024-line LLC
    results = {}
    for scheme in ("baseline", "ideal"):
        traces = generate_traces(
            get_profile("canneal"), config.n_cores, 400, seed=11
        )
        assert len(traces.touched_addresses()) > 1024  # real pressure
        system = CmpSystem(config, make_scheme(scheme), traces)
        results[scheme] = system.run()
    ideal = results["ideal"].counters_full
    baseline = results["baseline"].counters_full
    assert ideal["llc_resident_lines"] > baseline["llc_resident_lines"]
    assert ideal["memory_reads"] < baseline["memory_reads"]


def test_cnc_ni_activity():
    _, result = run_system("cnc")
    assert result.counters_full["ni_compressions"] > 0
    assert result.counters_full["ni_decompressions"] > 0


def test_disco_compresses_in_network():
    _, result = run_system("disco", workload="canneal", accesses=400)
    counters = result.counters_full
    assert counters["router_compressions"] > 0
    assert counters["router_decompressions"] + counters[
        "ni_decompressions"
    ] > 0


def test_fpc_and_sc2_schemes_run():
    for algorithm in ("fpc", "sc2"):
        _, result = run_system("disco", algorithm=algorithm, accesses=150)
        assert result.algorithm == algorithm
        assert result.cycles > 0


def test_mismatched_trace_cores_rejected():
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(get_profile("dedup"), 4, 50)
    with pytest.raises(ValueError):
        CmpSystem(config, make_scheme("baseline"), traces)


def test_bad_warmup_fraction_rejected():
    config = SystemConfig.scaled_4x4()
    traces = generate_traces(get_profile("dedup"), config.n_cores, 50)
    with pytest.raises(ValueError):
        CmpSystem(config, make_scheme("baseline"), traces, warmup_fraction=1.0)
