"""Fabric topologies: shape, port numbering and the one route per fabric.

A :class:`Topology` is the one description of a fabric the rest of the
NoC is built from: node count, per-node radix, adjacency (which output
port of which node feeds which input port of which neighbour), its
deterministic deadlock-free route and whether that route needs dateline
escape VCs, hop distance along it, and the placement queries the CMP
layer needs (corner nodes for memory controllers, the transpose
permutation for synthetic traffic).  :data:`TOPOLOGIES` maps each
``NocConfig.topology`` name to its class.

The port-numbering contract every topology obeys:

- port ``0`` (:data:`PORT_LOCAL`) is always the local injection/ejection
  port — routers, NIs and the ejection path rely on it;
- ports ``1 .. radix(node)-1`` are link ports; ``neighbor[node][port]``
  names the node that output port feeds (``None`` for an unconnected
  port, e.g. a mesh edge), and :meth:`Topology.neighbor_port` names the
  input port it lands on.

Each fabric has exactly one route: XY on the mesh (the paper's Table 2),
dimension order with a dateline per dimension on the torus, minimal
bidirectional with a dateline per direction on the ring, and star
ascent/descent around hub-mesh XY on the cmesh.  The dateline rule and
its deadlock-freedom argument live in :mod:`repro.noc.routing`.

The module-level ``PORT_*`` constants describe the 2-D mesh/torus port
space (the paper's Table 2 fabric) and are kept for the mesh-specific
tests; code outside this module should address ports through the
topology object instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.noc.routing import RouteDecision, ring_step

#: Router port indices (2-D mesh/torus port space).
PORT_LOCAL = 0
PORT_EAST = 1
PORT_WEST = 2
PORT_NORTH = 3
PORT_SOUTH = 4

PORT_NAMES = {
    PORT_LOCAL: "local",
    PORT_EAST: "east",
    PORT_WEST: "west",
    PORT_NORTH: "north",
    PORT_SOUTH: "south",
}

#: The port on the neighbouring router that a given output port feeds
#: (mesh/torus port space).
OPPOSITE = {
    PORT_EAST: PORT_WEST,
    PORT_WEST: PORT_EAST,
    PORT_NORTH: PORT_SOUTH,
    PORT_SOUTH: PORT_NORTH,
}

#: Radix of a 2-D mesh/torus router (local + 4 directions).
N_PORTS = 5

#: Ring port space: one clockwise (+1) and one counter-clockwise (-1) link.
RING_CW = 1
RING_CCW = 2


class Topology:
    """Base class: adjacency + distance queries over a fixed node set.

    Subclasses fill ``neighbor`` (one ``{port: node | None}`` dict per
    node, link ports only) and implement :meth:`radix`,
    :meth:`neighbor_port`, :meth:`route` and :meth:`hop_distance`.
    """

    name = "abstract"
    #: True when :meth:`route` returns dateline VC classes; the fabric
    #: then needs ``vcs_per_vnet >= 2`` (one escape class per half of
    #: each vnet's VCs, see :func:`min_vcs_per_vnet`).
    needs_escape_vcs = False

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("topology needs at least one node")
        self.n_nodes = n_nodes
        #: ``neighbor[node][port]`` -> neighbouring node id or ``None``.
        self.neighbor: List[Dict[int, Optional[int]]] = []

    @classmethod
    def from_shape(
        cls, width: int, height: int, concentration: int
    ) -> "Topology":
        """The fabric for ``NocConfig``'s shape fields; raises
        ``ValueError`` for a shape the fabric cannot take."""
        raise NotImplementedError

    @classmethod
    def shape_nodes(cls, width: int, height: int, concentration: int) -> int:
        """Node count of :meth:`from_shape` without building adjacency."""
        return width * height

    # -- adjacency ----------------------------------------------------------
    def radix(self, node: int) -> int:
        """Port count of one router, local port included."""
        raise NotImplementedError

    def neighbor_port(self, node: int, port: int) -> int:
        """The input port on ``neighbor[node][port]`` that the link feeds."""
        raise NotImplementedError

    def route(self, current: int, dst: int) -> RouteDecision:
        """``(out_port, vc_class)`` at ``current`` for a packet heading to
        ``dst``: a pure function of the pair, ``(PORT_LOCAL, None)`` on
        arrival (see :mod:`repro.noc.routing` for ``vc_class``)."""
        raise NotImplementedError

    def hop_distance(self, src: int, dst: int) -> int:
        """Hops along the topology's deterministic minimal route."""
        raise NotImplementedError

    def links(self) -> List[Tuple[int, int]]:
        """All directed links (src node, dst node)."""
        out = []
        for node in range(self.n_nodes):
            for port, nbr in self.neighbor[node].items():
                if nbr is not None:
                    out.append((node, nbr))
        return out

    def port_name(self, port: int) -> str:
        """Human-readable port label (wedge snapshots, debug)."""
        return "local" if port == PORT_LOCAL else f"link{port}"

    # -- placement queries (CMP layer) --------------------------------------
    def corner_nodes(self) -> Tuple[int, ...]:
        """Nodes suited to memory-controller placement (fabric edges for
        meshes; evenly spread for edge-less topologies)."""
        n = self.n_nodes
        spread = {0, n // 4, n // 2, (3 * n) // 4}
        return tuple(sorted(node % n for node in spread))

    def transpose_of(self, node: int) -> int:
        """Destination of ``node`` under the transpose traffic permutation
        (coordinate swap where coordinates exist, index reversal else)."""
        return self.n_nodes - 1 - node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.n_nodes} nodes>"


class _Grid2D(Topology):
    """Shared coordinate plumbing for width x height fabrics
    (row-major node ids; x grows east, y grows south)."""

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError(f"{self.name} dimensions must be positive")
        super().__init__(width * height)
        self.width = width
        self.height = height

    @classmethod
    def from_shape(
        cls, width: int, height: int, concentration: int
    ) -> "_Grid2D":
        return cls(width, height)

    def coords(self, node: int) -> Tuple[int, int]:
        """Node id -> (x, y); x grows east, y grows south."""
        self._check_node(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> Optional[int]:
        """(x, y) -> node id, or None outside the grid."""
        if 0 <= x < self.width and 0 <= y < self.height:
            return y * self.width + x
        return None

    def radix(self, node: int) -> int:
        return N_PORTS

    def neighbor_port(self, node: int, port: int) -> int:
        return OPPOSITE[port]

    def port_name(self, port: int) -> str:
        return PORT_NAMES.get(port, f"link{port}")

    def corner_nodes(self) -> Tuple[int, ...]:
        n, w = self.n_nodes, self.width
        return tuple(sorted({0, w - 1, n - w, n - 1}))

    def transpose_of(self, node: int) -> int:
        if self.width != self.height:
            return super().transpose_of(node)
        x, y = self.coords(node)
        transposed = self.node_at(y, x)
        assert transposed is not None
        return transposed


class Mesh2D(_Grid2D):
    """A ``width x height`` mesh (the paper's Table 2 fabric).

    Every router keeps the full 5-port layout; edge ports simply have no
    neighbour (``None``), which preserves the seed implementation's port
    numbering bit for bit.
    """

    name = "mesh"

    def __init__(self, width: int, height: int):
        super().__init__(width, height)
        for node in range(self.n_nodes):
            x, y = self.coords(node)
            self.neighbor.append(
                {
                    PORT_EAST: self.node_at(x + 1, y),
                    PORT_WEST: self.node_at(x - 1, y),
                    PORT_NORTH: self.node_at(x, y - 1),
                    PORT_SOUTH: self.node_at(x, y + 1),
                }
            )

    def route(self, current: int, dst: int) -> RouteDecision:
        """X first, then Y.  XY routing on a mesh is deadlock-free on any
        VC, which keeps the wormhole network live without a turn model."""
        cx, cy = self.coords(current)
        dx, dy = self.coords(dst)
        if cx < dx:
            return PORT_EAST, None
        if cx > dx:
            return PORT_WEST, None
        if cy > dy:
            return PORT_NORTH, None
        if cy < dy:
            return PORT_SOUTH, None
        return PORT_LOCAL, None

    def hop_distance(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)


class Torus2D(_Grid2D):
    """A ``width x height`` torus: the mesh plus wrap-around links.

    Both dimensions must be at least 2 so no wrap link is a self-loop.
    Deadlock freedom over the wrap links needs dimension order with a
    dateline (escape-VC) class per dimension, not plain XY.
    """

    name = "torus"
    needs_escape_vcs = True

    def __init__(self, width: int, height: int):
        if width < 2 or height < 2:
            raise ValueError("torus dimensions must be at least 2")
        super().__init__(width, height)
        for node in range(self.n_nodes):
            x, y = self.coords(node)
            self.neighbor.append(
                {
                    PORT_EAST: self.node_at((x + 1) % width, y),
                    PORT_WEST: self.node_at((x - 1) % width, y),
                    PORT_NORTH: self.node_at(x, (y - 1) % height),
                    PORT_SOUTH: self.node_at(x, (y + 1) % height),
                }
            )

    def route(self, current: int, dst: int) -> RouteDecision:
        """Dimension order with a dateline per dimension."""
        cx, cy = self.coords(current)
        dx, dy = self.coords(dst)
        if cx != dx:
            return ring_step(cx, dx, self.width, PORT_EAST, PORT_WEST)
        if cy != dy:
            return ring_step(cy, dy, self.height, PORT_SOUTH, PORT_NORTH)
        return PORT_LOCAL, None

    def hop_distance(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        ax, ay = abs(sx - dx), abs(sy - dy)
        return min(ax, self.width - ax) + min(ay, self.height - ay)


class Ring(Topology):
    """A bidirectional ring of ``n_nodes`` routers (radix 3).

    Port :data:`RING_CW` faces node ``i+1``, :data:`RING_CCW` faces
    ``i-1``; each direction is its own unidirectional ring, so deadlock
    avoidance only needs a dateline per direction (see
    :mod:`repro.noc.routing`).  Built from ``NocConfig``, the ring lays
    the same ``width * height`` node count out on a cycle.
    """

    name = "ring"
    needs_escape_vcs = True

    @classmethod
    def from_shape(
        cls, width: int, height: int, concentration: int
    ) -> "Ring":
        return cls(width * height)

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ValueError("ring needs at least 2 nodes")
        super().__init__(n_nodes)
        for node in range(n_nodes):
            self.neighbor.append(
                {
                    RING_CW: (node + 1) % n_nodes,
                    RING_CCW: (node - 1) % n_nodes,
                }
            )

    def radix(self, node: int) -> int:
        return 3

    def neighbor_port(self, node: int, port: int) -> int:
        # The CW output of node i lands on the CCW-facing side of i+1.
        return RING_CCW if port == RING_CW else RING_CW

    def port_name(self, port: int) -> str:
        return {PORT_LOCAL: "local", RING_CW: "cw", RING_CCW: "ccw"}.get(
            port, f"link{port}"
        )

    def route(self, current: int, dst: int) -> RouteDecision:
        """Minimal bidirectional, with a dateline per direction."""
        if current == dst:
            return PORT_LOCAL, None
        return ring_step(current, dst, self.n_nodes, RING_CW, RING_CCW)

    def hop_distance(self, src: int, dst: int) -> int:
        self._check_node(src)
        self._check_node(dst)
        d = abs(src - dst)
        return min(d, self.n_nodes - d)


class ConcentratedMesh2D(Topology):
    """A concentrated mesh: ``width x height`` hub routers, each serving a
    cluster of ``concentration`` terminals.

    Node ids: terminal ``node`` belongs to cluster ``node // c``; local
    index ``node % c == 0`` is the cluster hub (a full mesh router plus
    ``c - 1`` star links), the rest are radix-2 leaf routers whose only
    link port (``1``) is the uplink to their hub.  Routing ascends the
    star, XY-routes over the hub mesh, then descends — acyclic (tree +
    dimension order), so no escape VCs are needed.
    """

    name = "cmesh"

    @classmethod
    def from_shape(
        cls, width: int, height: int, concentration: int
    ) -> "ConcentratedMesh2D":
        return cls(width, height, concentration)

    @classmethod
    def shape_nodes(cls, width: int, height: int, concentration: int) -> int:
        return width * height * concentration

    def __init__(self, width: int, height: int, concentration: int = 4):
        if width < 1 or height < 1:
            raise ValueError("cmesh dimensions must be positive")
        if concentration < 1:
            raise ValueError("cmesh concentration must be at least 1")
        super().__init__(width * height * concentration)
        self.width = width
        self.height = height
        self.concentration = concentration
        self._hub_mesh = Mesh2D(width, height)
        c = concentration
        for node in range(self.n_nodes):
            cluster, local = divmod(node, c)
            if local == 0:  # hub: mesh ports + star ports
                ports: Dict[int, Optional[int]] = {}
                for port, nbr in self._hub_mesh.neighbor[cluster].items():
                    ports[port] = None if nbr is None else nbr * c
                for leaf in range(1, c):
                    ports[N_PORTS + leaf - 1] = cluster * c + leaf
                self.neighbor.append(ports)
            else:  # leaf: uplink only
                self.neighbor.append({1: cluster * c})

    # -- structure ----------------------------------------------------------
    def is_hub(self, node: int) -> bool:
        self._check_node(node)
        return node % self.concentration == 0

    def hub_of(self, node: int) -> int:
        self._check_node(node)
        return (node // self.concentration) * self.concentration

    def star_port(self, leaf: int) -> int:
        """The hub output port that faces ``leaf``."""
        local = leaf % self.concentration
        if local == 0:
            raise ValueError(f"node {leaf} is a hub, not a leaf")
        return N_PORTS + local - 1

    def radix(self, node: int) -> int:
        if self.is_hub(node):
            return N_PORTS + self.concentration - 1
        return 2

    def neighbor_port(self, node: int, port: int) -> int:
        if self.is_hub(node):
            if port in OPPOSITE:
                return OPPOSITE[port]
            return 1  # star link lands on the leaf's uplink port
        return self.star_port(node)  # leaf uplink lands on the hub's star port

    def port_name(self, port: int) -> str:
        if port in PORT_NAMES:
            return PORT_NAMES[port]
        if port >= N_PORTS:
            return f"star{port - N_PORTS + 1}"
        return f"link{port}"

    def route(self, current: int, dst: int) -> RouteDecision:
        """Star-up, XY over the hub mesh, star-down.  The star links form
        a tree and the hub mesh uses XY, so the union is acyclic."""
        if current == dst:
            return PORT_LOCAL, None
        if not self.is_hub(current):
            return 1, None  # leaf: the uplink is the only way out
        dst_hub = self.hub_of(dst)
        if current == dst_hub:
            return self.star_port(dst), None  # descend to the leaf
        c = self.concentration
        return self._hub_mesh.route(current // c, dst_hub // c)

    def hop_distance(self, src: int, dst: int) -> int:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0
        hops = self._hub_mesh.hop_distance(
            src // self.concentration, dst // self.concentration
        )
        if not self.is_hub(src):
            hops += 1
        if not self.is_hub(dst):
            hops += 1
        return hops

    def corner_nodes(self) -> Tuple[int, ...]:
        return tuple(
            cluster * self.concentration
            for cluster in self._hub_mesh.corner_nodes()
        )


#: ``NocConfig.topology`` name -> the fabric's class.
TOPOLOGIES: Dict[str, Type[Topology]] = {
    cls.name: cls for cls in (Mesh2D, Torus2D, Ring, ConcentratedMesh2D)
}


def topology_class(name: str) -> Type[Topology]:
    """The class of the fabric called ``name``."""
    fabric = TOPOLOGIES.get(name)
    if fabric is None:
        raise ValueError(
            f"unknown topology {name!r}; choose from {tuple(TOPOLOGIES)}"
        )
    return fabric


def min_vcs_per_vnet(name: str) -> int:
    """The fewest VCs per vnet the fabric's route is deadlock-free with:
    two dateline escape classes on the wrap-around fabrics, one else."""
    return 2 if topology_class(name).needs_escape_vcs else 1
