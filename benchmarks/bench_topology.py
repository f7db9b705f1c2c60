"""Topology sweep benchmark: the Fig. 5 comparison on mesh, torus and ring.

Runs ``topology_sweep`` at its defaults (three fabrics x three workloads x
four schemes at ``QUICK_ACCESSES``), each fabric normalized to its own
ideal system.  DISCO hides its latency in router queueing, which every
fabric has, so it must beat CC on each one.
"""

from common import once, save_and_print

from repro.experiments.topology_sweep import render, topology_sweep


def test_topology_sweep(benchmark):
    result = once(benchmark, topology_sweep)
    save_and_print('topology', render(result))
    for topology, grid in result.items():
        assert grid.gain("disco", "cc") > 0.0, topology
