"""Network topologies and routing.

A topology answers one question: *which shared resources does a transfer
between two endpoints traverse, and with what latency?*  The answer is a
:class:`Route` — a list of bandwidth resources plus an accumulated latency —
consumed by the execution engine to create flow activities.

Endpoints are node indices (ints) or the special string ``"pfs"``.

Two families are provided:

* :class:`StarTopology` — every node hangs off one big crossbar switch with
  a private up and down link; the PFS hangs off the same switch.  This is
  the abstraction ElastiSim's flat cluster platforms use and is O(1) per
  route.
* :class:`GraphTopology` — routes over an arbitrary networkx multigraph
  whose edges carry :class:`Link` objects; builders for fat-tree, torus and
  dragonfly shapes are included.  Shortest paths (by hop count) are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple, Union

from repro.platform.components import PlatformError, _node_name
from repro.sharing import SharedResource

if TYPE_CHECKING:  # pragma: no cover - networkx loads with the first graph topology
    import networkx as nx

Endpoint = Union[int, str]

#: Route endpoint naming the parallel file system.
PFS = "pfs"


class Link:
    """A network link: one bandwidth resource plus a latency."""

    __slots__ = ("name", "resource", "latency")

    def __init__(self, name: str, bandwidth: float, latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise PlatformError(f"Link {name!r}: bandwidth must be > 0")
        if latency < 0:
            raise PlatformError(f"Link {name!r}: latency must be >= 0")
        self.name = name
        self.resource = SharedResource(name, bandwidth)
        self.latency = latency

    @property
    def bandwidth(self) -> float:
        return self.resource.capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} bw={self.bandwidth:g} lat={self.latency:g}>"


@dataclass(frozen=True)
class Route:
    """The resources a transfer traverses and its end-to-end latency."""

    resources: Tuple[SharedResource, ...]
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise PlatformError("Route latency must be >= 0")


class Topology:
    """Interface: map endpoint pairs to routes."""

    #: Number of compute nodes the topology is sized for.
    num_nodes: int

    def route(self, src: Endpoint, dst: Endpoint) -> Route:
        """Route from ``src`` to ``dst``; loopback returns an empty route."""
        raise NotImplementedError

    def attach_nodes(self, nodes) -> None:
        """:meth:`attach_node` every one of ``nodes``, which must be all of them."""
        if len(nodes) != self.num_nodes:
            raise PlatformError(
                f"Topology sized for {self.num_nodes} nodes, got {len(nodes)}"
            )
        for node in nodes:
            self.attach_node(node)

    def attach_node(self, node) -> None:
        """Give ``node`` its ``up``/``down`` NIC resources (topology-owned).

        The platform calls this once per node, when the node is built.
        Nothing to do where the first/last edges of a route already model
        the NIC: ``up``/``down`` stay ``None``.
        """

    def shared_resources(self) -> List[SharedResource]:
        """Every topology-owned shared resource, in a deterministic order.

        Snapshot capture refers to resources by their position in the
        platform's resource walk (node-owned resources first, then this
        list) rather than by name: names are user-controlled in graph
        topologies and may collide, positions cannot.  The order must be a
        pure function of the topology's construction inputs.
        """
        raise NotImplementedError


class StarTopology(Topology):
    """All nodes on one non-blocking switch; PFS on dedicated uplinks.

    Parameters
    ----------
    num_nodes:
        Number of compute nodes.
    bandwidth:
        Per-node link bandwidth in bytes/s (full duplex: independent up and
        down resources).
    latency:
        One-way per-link latency; a node-to-node route crosses two links.
    pfs_bandwidth:
        Bandwidth of the PFS's switch uplink (defaults to ``bandwidth``).
    """

    def __init__(
        self,
        num_nodes: int,
        bandwidth: float,
        latency: float = 0.0,
        pfs_bandwidth: float | None = None,
    ) -> None:
        if num_nodes < 1:
            raise PlatformError("StarTopology needs at least one node")
        if bandwidth <= 0:
            raise PlatformError(f"StarTopology: bandwidth must be > 0, got {bandwidth}")
        self.num_nodes = num_nodes
        self.bandwidth = bandwidth
        self.latency = latency
        #: Each node's private ``(up, down)`` pair, ``None`` until a route
        #: or the node itself first needs it.
        self._links: List[Optional[Tuple[SharedResource, SharedResource]]] = [None] * num_nodes
        pfs_bw = pfs_bandwidth if pfs_bandwidth is not None else bandwidth
        self._pfs_in = SharedResource("pfs.link.in", pfs_bw)
        self._pfs_out = SharedResource("pfs.link.out", pfs_bw)

    def _link(self, idx: int) -> Tuple[SharedResource, SharedResource]:
        """Node ``idx``'s ``(up, down)`` pair, built on first use."""
        if not 0 <= idx < self.num_nodes:
            raise PlatformError(f"Node index {idx} out of range 0..{self.num_nodes-1}")
        pair = self._links[idx]
        if pair is None:
            name = _node_name(idx)
            pair = self._links[idx] = (
                SharedResource(name + ".up", self.bandwidth),
                SharedResource(name + ".down", self.bandwidth),
            )
        return pair

    def attach_node(self, node) -> None:
        node.up, node.down = self._link(node.index)

    def shared_resources(self) -> List[SharedResource]:
        resources: List[SharedResource] = []
        for idx, pair in enumerate(self._links):
            resources.extend(pair or self._link(idx))
        resources.append(self._pfs_in)
        resources.append(self._pfs_out)
        return resources

    def route(self, src: Endpoint, dst: Endpoint) -> Route:
        if src == dst:
            return Route((), 0.0)
        if src == PFS:
            # PFS → node: PFS egress + node ingress.
            resources = (self._pfs_out, self._link(dst)[1])  # type: ignore[arg-type]
        elif dst == PFS:
            resources = (self._link(src)[0], self._pfs_in)  # type: ignore[arg-type]
        else:
            resources = (self._link(src)[0], self._link(dst)[1])  # type: ignore[arg-type]
        return Route(resources, 2 * self.latency)


class GraphTopology(Topology):
    """Routes over an explicit link graph.

    The graph's vertices are compute vertices ``("node", i)``, the literal
    string ``"pfs"``, and arbitrary switch vertices.  Each edge must carry a
    ``link`` attribute holding a :class:`Link`.  Routing is hop-count
    shortest path with deterministic tie-breaking; results are cached.
    """

    def __init__(self, graph: nx.Graph, num_nodes: int) -> None:
        for u, v, data in graph.edges(data=True):
            if "link" not in data or not isinstance(data["link"], Link):
                raise PlatformError(f"Edge {u!r}-{v!r} lacks a Link attribute")
        for i in range(num_nodes):
            if ("node", i) not in graph:
                raise PlatformError(f"Graph lacks vertex for node {i}")
        self.graph = graph
        self.num_nodes = num_nodes
        self._cache: Dict[Tuple[Hashable, Hashable], Route] = {}

    def shared_resources(self) -> List[SharedResource]:
        # networkx preserves edge insertion order, and the builders add
        # edges in a deterministic order derived from their parameters.
        return [data["link"].resource for _, _, data in self.graph.edges(data=True)]

    def _vertex(self, endpoint: Endpoint) -> Hashable:
        if endpoint == PFS:
            if PFS not in self.graph:
                raise PlatformError("Graph topology has no 'pfs' vertex")
            return PFS
        if not 0 <= endpoint < self.num_nodes:  # type: ignore[operator]
            raise PlatformError(
                f"Node index {endpoint} out of range 0..{self.num_nodes-1}"
            )
        return ("node", endpoint)

    def route(self, src: Endpoint, dst: Endpoint) -> Route:
        if src == dst:
            return Route((), 0.0)
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        import networkx as nx

        u, v = self._vertex(src), self._vertex(dst)
        try:
            path = nx.shortest_path(self.graph, u, v)
        except nx.NetworkXNoPath:
            raise PlatformError(f"No route between {src!r} and {dst!r}") from None
        resources: List[SharedResource] = []
        latency = 0.0
        for a, b in zip(path, path[1:]):
            link: Link = self.graph.edges[a, b]["link"]
            resources.append(link.resource)
            latency += link.latency
        result = Route(tuple(resources), latency)
        self._cache[key] = result
        return result


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------

def build_fat_tree(
    num_nodes: int,
    *,
    arity: int = 8,
    leaf_bandwidth: float,
    spine_bandwidth: float | None = None,
    latency: float = 1e-6,
    pfs_bandwidth: float | None = None,
) -> GraphTopology:
    """Two-level fat tree: leaf switches of ``arity`` nodes, one spine.

    ``spine_bandwidth`` defaults to ``arity * leaf_bandwidth`` (full
    bisection); pass less to model tapered trees.
    """
    if num_nodes < 1:
        raise PlatformError("fat tree needs at least one node")
    if arity < 1:
        raise PlatformError("arity must be >= 1")
    spine_bw = spine_bandwidth if spine_bandwidth is not None else arity * leaf_bandwidth
    import networkx as nx

    graph = nx.Graph()
    num_leaves = (num_nodes + arity - 1) // arity
    for leaf in range(num_leaves):
        graph.add_edge(
            ("leaf", leaf),
            "spine",
            link=Link(f"leaf{leaf}-spine", spine_bw, latency),
        )
    for i in range(num_nodes):
        leaf = i // arity
        graph.add_edge(
            ("node", i),
            ("leaf", leaf),
            link=Link(f"{_node_name(i)}-leaf{leaf}", leaf_bandwidth, latency),
        )
    pfs_bw = pfs_bandwidth if pfs_bandwidth is not None else spine_bw
    graph.add_edge(PFS, "spine", link=Link("pfs-spine", pfs_bw, latency))
    return GraphTopology(graph, num_nodes)


def build_torus(
    dims: Tuple[int, ...],
    *,
    bandwidth: float,
    latency: float = 1e-6,
    pfs_bandwidth: float | None = None,
) -> GraphTopology:
    """N-dimensional torus; node i maps to mixed-radix coordinates of dims.

    The PFS attaches to node 0's vertex through a dedicated link.
    """
    if not dims or any(d < 1 for d in dims):
        raise PlatformError(f"Invalid torus dims {dims!r}")
    num_nodes = 1
    for d in dims:
        num_nodes *= d

    def coords(i: int) -> Tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(i % d)
            i //= d
        return tuple(reversed(out))

    def index(c: Tuple[int, ...]) -> int:
        i = 0
        for d, x in zip(dims, c):
            i = i * d + x
        return i

    import networkx as nx

    graph = nx.Graph()
    for i in range(num_nodes):
        graph.add_node(("node", i))
    for i in range(num_nodes):
        c = coords(i)
        for axis, d in enumerate(dims):
            if d == 1:
                continue
            neighbour = list(c)
            neighbour[axis] = (c[axis] + 1) % d
            j = index(tuple(neighbour))
            if graph.has_edge(("node", i), ("node", j)):
                continue
            graph.add_edge(
                ("node", i),
                ("node", j),
                link=Link(f"torus{i}-{j}", bandwidth, latency),
            )
    pfs_bw = pfs_bandwidth if pfs_bandwidth is not None else bandwidth
    graph.add_edge(PFS, ("node", 0), link=Link("pfs-n0", pfs_bw, latency))
    return GraphTopology(graph, num_nodes)


def build_dragonfly(
    groups: int,
    routers_per_group: int,
    nodes_per_router: int,
    *,
    node_bandwidth: float,
    local_bandwidth: float | None = None,
    global_bandwidth: float | None = None,
    latency: float = 1e-6,
    pfs_bandwidth: float | None = None,
) -> GraphTopology:
    """Simplified dragonfly: all-to-all routers within a group, one global
    link between every group pair (attached round-robin to routers)."""
    if groups < 1 or routers_per_group < 1 or nodes_per_router < 1:
        raise PlatformError("dragonfly parameters must be >= 1")
    local_bw = local_bandwidth if local_bandwidth is not None else node_bandwidth * 2
    global_bw = global_bandwidth if global_bandwidth is not None else node_bandwidth * 4
    import networkx as nx

    graph = nx.Graph()
    num_nodes = groups * routers_per_group * nodes_per_router
    # Node ↔ router links.
    for i in range(num_nodes):
        router = i // nodes_per_router
        graph.add_edge(
            ("node", i),
            ("router", router),
            link=Link(f"{_node_name(i)}-r{router}", node_bandwidth, latency),
        )
    # Intra-group all-to-all.
    for g in range(groups):
        routers = [g * routers_per_group + r for r in range(routers_per_group)]
        for a_idx, a in enumerate(routers):
            for b in routers[a_idx + 1 :]:
                graph.add_edge(
                    ("router", a),
                    ("router", b),
                    link=Link(f"local-r{a}-r{b}", local_bw, latency),
                )
    # Inter-group links, round-robin over routers.
    counter = 0
    for ga in range(groups):
        for gb in range(ga + 1, groups):
            ra = ga * routers_per_group + counter % routers_per_group
            rb = gb * routers_per_group + counter % routers_per_group
            graph.add_edge(
                ("router", ra),
                ("router", rb),
                link=Link(f"global-g{ga}-g{gb}", global_bw, 10 * latency),
            )
            counter += 1
    pfs_bw = pfs_bandwidth if pfs_bandwidth is not None else global_bw
    graph.add_edge(PFS, ("router", 0), link=Link("pfs-r0", pfs_bw, latency))
    return GraphTopology(graph, num_nodes)
