"""Topology and routing tests: mesh/torus/ring/cmesh, each fabric's
route, and the name -> class table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import (
    TOPOLOGIES,
    ConcentratedMesh2D,
    Mesh2D,
    OPPOSITE,
    PORT_EAST,
    PORT_LOCAL,
    PORT_NORTH,
    PORT_SOUTH,
    PORT_WEST,
    RING_CCW,
    RING_CW,
    Ring,
    Torus2D,
    min_vcs_per_vnet,
    topology_class,
)


class TestMesh:
    def test_coords_roundtrip(self):
        mesh = Mesh2D(4, 4)
        for node in range(16):
            x, y = mesh.coords(node)
            assert mesh.node_at(x, y) == node

    def test_neighbors_4x4(self):
        mesh = Mesh2D(4, 4)
        assert mesh.neighbor[0][PORT_EAST] == 1
        assert mesh.neighbor[0][PORT_WEST] is None
        assert mesh.neighbor[0][PORT_SOUTH] == 4
        assert mesh.neighbor[0][PORT_NORTH] is None
        assert mesh.neighbor[5][PORT_EAST] == 6
        assert mesh.neighbor[5][PORT_NORTH] == 1

    def test_neighbor_symmetry(self):
        mesh = Mesh2D(3, 5)
        for node in range(mesh.n_nodes):
            for port, nbr in mesh.neighbor[node].items():
                if nbr is not None:
                    assert mesh.neighbor[nbr][OPPOSITE[port]] == node

    def test_links_count(self):
        mesh = Mesh2D(4, 4)
        # 2 directed links per internal edge: 2*(3*4)*2 meshes of edges
        assert len(mesh.links()) == 2 * (3 * 4 + 4 * 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 4)
        with pytest.raises(ValueError):
            Mesh2D(4, 4).coords(16)


class TestXYRouting:
    def test_local_at_destination(self):
        mesh = Mesh2D(4, 4)
        for node in range(16):
            assert mesh.route(node, node) == (PORT_LOCAL, None)

    def test_x_first(self):
        mesh = Mesh2D(4, 4)
        # node 0 (0,0) -> node 15 (3,3): go east first
        assert mesh.route(0, 15) == (PORT_EAST, None)
        # same column: go south
        assert mesh.route(0, 12) == (PORT_SOUTH, None)
        assert mesh.route(12, 0) == (PORT_NORTH, None)
        assert mesh.route(3, 0) == (PORT_WEST, None)

    @given(
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
    )
    @settings(max_examples=200, deadline=None)
    def test_route_always_converges(self, src, dst):
        mesh = Mesh2D(8, 8)
        current = src
        steps = 0
        while current != dst:
            port, vc_class = mesh.route(current, dst)
            assert port != PORT_LOCAL and vc_class is None
            current = mesh.neighbor[current][port]
            assert current is not None
            steps += 1
            assert steps <= 14
        assert steps == mesh.hop_distance(src, dst)

    def test_hops(self):
        mesh = Mesh2D(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(5, 5) == 0
        assert mesh.hop_distance(0, 3) == 3


def walk_route(topology, src, dst):
    """Follow a topology's route link by link; returns (hops, classes)."""
    current, hops, classes = src, 0, []
    while current != dst:
        port, vc_class = topology.route(current, dst)
        assert port != PORT_LOCAL
        classes.append(vc_class)
        nbr = topology.neighbor[current].get(port)
        assert nbr is not None, f"route exited the fabric at {current}"
        current = nbr
        hops += 1
        assert hops <= topology.n_nodes * 2, "route is cycling"
    assert topology.route(dst, dst) == (PORT_LOCAL, None)
    return hops, classes


ALL_FABRICS = (
    TOPOLOGIES["mesh"].from_shape(4, 4, 4),
    TOPOLOGIES["torus"].from_shape(4, 4, 4),
    TOPOLOGIES["ring"].from_shape(4, 2, 4),
    TOPOLOGIES["cmesh"].from_shape(2, 2, 4),
)


class TestTopologyProtocol:
    @pytest.mark.parametrize("topology", ALL_FABRICS, ids=lambda t: t.name)
    def test_adjacency_is_symmetric(self, topology):
        # Every directed link (node, port) -> nbr lands on a port whose
        # own link points straight back.
        for node in range(topology.n_nodes):
            for port, nbr in topology.neighbor[node].items():
                if nbr is None:
                    continue
                back = topology.neighbor_port(node, port)
                assert topology.neighbor[nbr][back] == node

    @pytest.mark.parametrize("topology", ALL_FABRICS, ids=lambda t: t.name)
    def test_radix_covers_every_link_port(self, topology):
        for node in range(topology.n_nodes):
            radix = topology.radix(node)
            assert radix >= 2  # local + at least one link
            for port in topology.neighbor[node]:
                assert 1 <= port < radix
            assert PORT_LOCAL not in topology.neighbor[node]

    @pytest.mark.parametrize("topology", ALL_FABRICS, ids=lambda t: t.name)
    def test_hop_distance_is_a_metric(self, topology):
        n = topology.n_nodes
        for src in range(n):
            assert topology.hop_distance(src, src) == 0
            for dst in range(n):
                d = topology.hop_distance(src, dst)
                assert d == topology.hop_distance(dst, src)
                assert (d == 0) == (src == dst)

    def test_factory_matches_n_nodes(self):
        for name, args in (
            ("mesh", (4, 4, 4)), ("torus", (3, 5, 4)),
            ("ring", (4, 4, 4)), ("cmesh", (2, 3, 4)),
        ):
            fabric = TOPOLOGIES[name]
            assert fabric.from_shape(*args).n_nodes == fabric.shape_nodes(
                *args
            )


class TestTorus:
    def test_wrap_neighbors(self):
        torus = Torus2D(4, 4)
        assert torus.neighbor[0][PORT_WEST] == 3  # x wraps
        assert torus.neighbor[3][PORT_EAST] == 0
        assert torus.neighbor[0][PORT_NORTH] == 12  # y wraps
        assert torus.neighbor[12][PORT_SOUTH] == 0

    def test_wrap_hop_distance(self):
        torus = Torus2D(4, 4)
        assert torus.hop_distance(0, 3) == 1  # around the wrap
        assert torus.hop_distance(0, 15) == 2  # (-1, -1)
        assert torus.hop_distance(0, 5) == 2

    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            Torus2D(1, 4)

    @given(src=st.integers(0, 24), dst=st.integers(0, 24))
    @settings(max_examples=200, deadline=None)
    def test_route_walk_is_minimal(self, src, dst):
        torus = Torus2D(5, 5)
        hops, classes = walk_route(torus, src, dst)
        assert hops == torus.hop_distance(src, dst)
        # Every inter-router step carries a dateline class.
        assert all(c in (0, 1) for c in classes)

    @given(src=st.integers(0, 24), dst=st.integers(0, 24))
    @settings(max_examples=200, deadline=None)
    def test_dateline_class_drops_exactly_at_the_wrap(self, src, dst):
        # Within one dimension's traversal: class 1 strictly before the
        # wrap crossing, class 0 strictly after, never 0 -> 1.  Class 0
        # therefore never occupies a wrap link and a class-1 chain ends at
        # the wrap — both dependency graphs stay acyclic.
        torus = Torus2D(5, 5)
        current, prev_port, prev_class = src, None, None
        while current != dst:
            port, vc_class = torus.route(current, dst)
            if port == prev_port:
                assert (prev_class, vc_class) != (0, 1)
            prev_port, prev_class = port, vc_class
            current = torus.neighbor[current][port]

    def test_class_zero_never_uses_a_wrap_link(self):
        torus = Torus2D(5, 5)
        for src in range(25):
            for dst in range(25):
                current = src
                while current != dst:
                    port, vc_class = torus.route(current, dst)
                    nbr = torus.neighbor[current][port]
                    cx, cy = torus.coords(current)
                    nx, ny = torus.coords(nbr)
                    wrap = abs(cx - nx) > 1 or abs(cy - ny) > 1
                    if wrap:
                        assert vc_class == 1
                    current = nbr


class TestRing:
    def test_adjacency(self):
        ring = Ring(6)
        assert ring.neighbor[5][RING_CW] == 0
        assert ring.neighbor[0][RING_CCW] == 5
        assert ring.neighbor_port(0, RING_CW) == RING_CCW
        assert ring.neighbor_port(0, RING_CCW) == RING_CW
        assert ring.radix(0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Ring(1)

    @given(src=st.integers(0, 15), dst=st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_route_walk_is_minimal(self, src, dst):
        ring = Ring(16)
        hops, classes = walk_route(ring, src, dst)
        assert hops == ring.hop_distance(src, dst)
        assert all(c in (0, 1) for c in classes)

    def test_direction_is_minimal_and_tie_breaks_clockwise(self):
        ring = Ring(8)
        assert ring.route(0, 2)[0] == RING_CW
        assert ring.route(0, 6)[0] == RING_CCW
        assert ring.route(0, 4)[0] == RING_CW  # tie -> clockwise

    def test_dateline_class_set_after_wrap(self):
        ring = Ring(8)
        # 6 -> 1 clockwise: before the wrap (current 6,7 > dst) class 1,
        # after the wrap (current 0 < dst) class 0.
        assert ring.route(6, 1) == (RING_CW, 1)
        assert ring.route(7, 1) == (RING_CW, 1)
        assert ring.route(0, 1) == (RING_CW, 0)


class TestConcentratedMesh:
    def test_structure(self):
        cmesh = ConcentratedMesh2D(2, 2, concentration=4)
        assert cmesh.n_nodes == 16
        assert cmesh.is_hub(0) and cmesh.is_hub(4)
        assert not cmesh.is_hub(1)
        assert cmesh.hub_of(6) == 4
        assert cmesh.radix(0) == 5 + 3  # mesh ports + 3 star links
        assert cmesh.radix(1) == 2  # local + uplink
        assert cmesh.neighbor[1][1] == 0  # leaf uplink
        assert cmesh.neighbor[0][cmesh.star_port(1)] == 1
        assert cmesh.neighbor[0][PORT_EAST] == 4  # hub-to-hub mesh link

    def test_validation(self):
        with pytest.raises(ValueError):
            ConcentratedMesh2D(2, 2, concentration=0)
        with pytest.raises(ValueError):
            ConcentratedMesh2D(2, 2).star_port(4)  # a hub, not a leaf

    @given(src=st.integers(0, 15), dst=st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_route_walk_is_minimal(self, src, dst):
        cmesh = ConcentratedMesh2D(2, 2, concentration=4)
        hops, classes = walk_route(cmesh, src, dst)
        assert hops == cmesh.hop_distance(src, dst)
        assert all(c is None for c in classes)  # tree + XY needs no classes

    def test_corner_nodes_are_hubs(self):
        cmesh = ConcentratedMesh2D(4, 4, concentration=4)
        for node in cmesh.corner_nodes():
            assert cmesh.is_hub(node)


class TestTopologyTable:
    def test_every_name_maps_to_its_class(self):
        assert set(TOPOLOGIES) == {"mesh", "torus", "ring", "cmesh"}
        for name, fabric in TOPOLOGIES.items():
            assert fabric.name == name
            assert topology_class(name) is fabric

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology_class("hypercube")
        with pytest.raises(ValueError, match="unknown topology"):
            min_vcs_per_vnet("hypercube")

    def test_escape_vc_flags(self):
        assert Torus2D.needs_escape_vcs and Ring.needs_escape_vcs
        assert not Mesh2D.needs_escape_vcs
        assert not ConcentratedMesh2D.needs_escape_vcs
        names = ("mesh", "torus", "ring", "cmesh")
        assert [min_vcs_per_vnet(name) for name in names] == [1, 2, 2, 1]
