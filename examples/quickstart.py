#!/usr/bin/env python3
"""Quickstart: the three layers of the DISCO reproduction in one script.

1. Compress real cache lines with the pluggable algorithms.
2. Watch a DISCO router compress packets inside a congested NoC.
3. Run a small full-system CMP simulation and compare schemes.

Run:  python examples/quickstart.py
"""

from repro.compression import available_algorithms, get_algorithm
from repro.core import DiscoConfig, disco_priority, make_disco_router_factory
from repro.noc import Network, NocConfig
from repro.noc.traffic import SyntheticTraffic, TrafficConfig
from repro.cmp import CmpSystem, SystemConfig, make_scheme
from repro.workloads import generate_traces, get_profile


def demo_compression() -> None:
    print("=" * 64)
    print("1. Cache-line compression")
    print("=" * 64)
    pool_line = bytes.fromhex(
        "00000000010000000200000003000000"
        "04000000050000000600000007000000"
    ) * 2  # small integers in 32-bit fields
    for name in available_algorithms():
        # Decoding belongs to the plain algorithm: the simulator's cached
        # wrapper keeps only each line's size.
        algorithm = get_algorithm(name, cached=False)
        compressed = algorithm.compress(pool_line)
        assert algorithm.decompress(compressed) == pool_line
        print(
            f"  {name:6s}: 64 B -> {compressed.size_bytes:2d} B "
            f"(ratio {compressed.ratio:4.1f}x)"
        )


def demo_disco_router() -> None:
    print()
    print("=" * 64)
    print("2. In-network compression under congestion")
    print("=" * 64)
    network = Network(
        NocConfig(width=4, height=4),
        router_factory=make_disco_router_factory(DiscoConfig()),
    )
    network.packet_priority = disco_priority
    traffic = SyntheticTraffic(
        network, TrafficConfig(injection_rate=0.08, seed=1)
    )
    traffic.run(2000)
    stats = network.stats
    print(f"  packets delivered:        {stats.packets_ejected}")
    print(f"  avg packet latency:       {stats.avg_packet_latency:.1f} cycles")
    print(f"  in-network compressions:  {stats.compressions} "
          f"({stats.separate_compressions} streaming)")
    print(f"  in-network decompressions:{stats.decompressions}")
    print(f"  non-blocking aborts:      {stats.aborted_jobs}")
    print(f"  flits saved on the wire:  {stats.flits_saved}")


def demo_full_system() -> None:
    print()
    print("=" * 64)
    print("3. Full-system comparison (small run)")
    print("=" * 64)
    config = SystemConfig.scaled_4x4()
    profile = get_profile("canneal")
    for scheme_name in ("baseline", "cc", "disco"):
        traces = generate_traces(profile, config.n_cores, 400, seed=3)
        system = CmpSystem(
            config, make_scheme(scheme_name), traces, warmup_fraction=0.3
        )
        result = system.run()
        print(
            f"  {scheme_name:8s}: avg miss latency "
            f"{result.avg_miss_latency:6.1f} cycles, "
            f"LLC miss rate {result.llc_miss_rate:.2f}, "
            f"{result.cycles} cycles total"
        )


if __name__ == "__main__":
    demo_compression()
    demo_disco_router()
    demo_full_system()
