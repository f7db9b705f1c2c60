"""Fabric pins: every route decision and hop distance of the four
fabrics, and one DISCO run on each non-mesh fabric, bit for bit.

The golden mesh digests (``test_golden_mesh``, ``test_golden_large_mesh``)
and the ledger's campaign digests only cover meshes; these pins cover
the torus, ring and concentrated mesh too.  They were captured while
routing still went through a name -> algorithm registry, before each
topology class came to hold its own route, so a refactor of the fabric
layer that changes one decision, one distance or one counter of a
non-mesh run fails here.

The route table is read through ``Network.route`` (the memoized lookup
the routers use), every ``(node, dst)`` pair including ``node == dst``.
"""

import hashlib
import json

import pytest

from repro.experiments import runner
from repro.experiments.runner import QUICK_ACCESSES, RunSpec
from repro.noc import Network, NocConfig

#: Fabric id -> ``NocConfig`` arguments (the wrap-around fabrics carry
#: the two VCs per vnet their dateline escape classes need).
FABRICS = {
    "mesh-4x4": dict(topology="mesh", width=4, height=4),
    "mesh-3x5": dict(topology="mesh", width=3, height=5),
    "torus-4x4": dict(topology="torus", width=4, height=4, vcs_per_vnet=2),
    "torus-3x4": dict(topology="torus", width=3, height=4, vcs_per_vnet=2),
    "ring-16": dict(topology="ring", width=16, height=1, vcs_per_vnet=2),
    "ring-7": dict(topology="ring", width=7, height=1, vcs_per_vnet=2),
    "cmesh-2x2c4": dict(topology="cmesh", width=2, height=2, concentration=4),
}

#: Fabric id -> (sha256 of the route table, sha256 of the distance table).
TABLE_DIGESTS = {
    "cmesh-2x2c4": (
        "8cdbd24606f0c8769053f4330352b6519b7570fe2df944accfeb0b7453588cfa",
        "7b8234c0765f0eeafb7cc8f03b60c1050c2529dce96b62059447b1b70e5fa842",
    ),
    "mesh-3x5": (
        "bffab5067f38ef3d6704290f8bc13281dfa73c367cb6126781d84ba917bec2e9",
        "3cd027cd67a2651fa32e45db1a76c46619a4130ea1ff399b1af7bb89b74ed8ea",
    ),
    "mesh-4x4": (
        "3045fb86b85beb236d5b00cd3457437a6b8c6f2473cb1f8eec413e4fe38d1b98",
        "4c25ca1d5bb21abd12a5d5a965d9b160e2b0ae1d4c45bbdbe90392247be3cb66",
    ),
    "ring-16": (
        "5b7d67d5a7d605b4d8e551083f15e878eef1868b54bee0b5489f26fcfc9b7f80",
        "c6bb4650eafdea9f18caa9b64eadafd32037bda150e760d7bc6c2037ccf1f7ab",
    ),
    "ring-7": (
        "45635ef4081a6a181f4bfa4f8ad81f19b0bb43e668ae17a817cca07dd9618329",
        "d937a4e065921dd762e518d45547407140ca44f0ccbc2b9c4da90c0cafb4bccd",
    ),
    "torus-3x4": (
        "6d8a25f8399b52e4d05111d3095871980a344f49b7d60517c359bc1705f9ac8b",
        "3ca8a9e91bd885c0676f162e7b4ab7d70f68cc5107f6d45d2e57dbab0ebc68c1",
    ),
    "torus-4x4": (
        "f8afef47a065321af37619954452514eebf78469ad3b815d90d65761346cc07c",
        "63b270c67d7797edd91fc59fe8291d468c8959d45881bce37a237349608f549d",
    ),
}

#: Topology -> ``result_digest`` of a quick DISCO blackscholes run.
RUN_DIGESTS = {
    "cmesh": "7971e14ab905aa92b69294b9ac2537d406768e1a92df6a822cb8aa83a35cf313",
    "ring": "37441cb95a242b31c8c96b4ee228b1baf4603cd4416a2a1d74bea7a6f45eb50e",
    "torus": "9da9e6c464b3643767da7df5cb99903e68206d0d6778389f5450fcb42176e023",
}

#: Topology -> the extra ``RunSpec`` arguments of its pinned run (the
#: cmesh runs 2x2 hubs of four terminals: 16 tiles, like the others).
RUN_SHAPES = {
    "torus": {},
    "ring": {},
    "cmesh": {"width": 2, "height": 2},
}


def _sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def table_digests(config: NocConfig):
    """(route-table digest, distance-table digest) of one fabric."""
    network = Network(config)
    topology = network.topology
    nodes = range(topology.n_nodes)
    routes = [
        [node, dst, *network.route(node, dst)] for node in nodes for dst in nodes
    ]
    distances = [
        [src, dst, topology.hop_distance(src, dst)]
        for src in nodes
        for dst in nodes
    ]
    return _sha256(routes), _sha256(distances)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_route_and_distance_tables_are_pinned(fabric):
    routes, distances = table_digests(NocConfig(**FABRICS[fabric]))
    pinned_routes, pinned_distances = TABLE_DIGESTS[fabric]
    assert routes == pinned_routes, f"{fabric}: a route decision changed"
    assert distances == pinned_distances, f"{fabric}: a hop distance changed"


@pytest.mark.parametrize("topology", sorted(RUN_DIGESTS))
def test_non_mesh_disco_runs_are_pinned(topology):
    spec = RunSpec(
        scheme="disco", workload="blackscholes", topology=topology,
        accesses_per_core=QUICK_ACCESSES, **RUN_SHAPES[topology],
    )
    # ``_simulate`` bypasses every cache: a genuinely fresh run.
    result = runner._simulate(spec)
    assert runner.result_digest(result) == RUN_DIGESTS[topology], (
        f"the quick disco run on the {topology} diverged from its pin"
    )
