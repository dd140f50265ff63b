"""The Platform aggregate: nodes + topology + PFS."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from heapq import nlargest
from typing import List, Optional, Set

from repro.platform.components import Fleet, Node, NodeState, Pfs, PlatformError
from repro.platform.topology import PFS, Route, Topology


class FreeNodes(Sequence):
    """Read-only snapshot of the free nodes, in index order.

    Wraps a private copy of the platform's sorted free-id list and resolves
    ids to :class:`Node` objects only for the entries a caller touches, so
    ``free[:need]`` costs O(need) however large the machine — and builds
    only those nodes.  It reads the fleet's slots directly: a node that
    exists costs an index, not a call.  Slices are plain lists (contract:
    docs/INTERNALS.md, "The free-node view").
    """

    __slots__ = ("_ids", "_fleet")

    def __init__(self, ids: List[int], fleet: Fleet) -> None:
        self._ids = ids
        self._fleet = fleet

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, item):
        fleet = self._fleet
        nodes = fleet._nodes
        if isinstance(item, slice):
            return [nodes[i] or fleet._build(i) for i in self._ids[item]]
        index = self._ids[item]
        return nodes[index] or fleet._build(index)

    def __iter__(self):
        fleet = self._fleet
        nodes = fleet._nodes
        return (nodes[i] or fleet._build(i) for i in self._ids)


class Platform:
    """A complete machine description.

    Parameters
    ----------
    nodes:
        The compute nodes, densely indexed 0..n-1: a :meth:`Node.fleet`
        (built on first use) or any sequence of nodes built by hand.
    topology:
        Provides routes between nodes and to the PFS.
    pfs:
        The parallel file system; optional for compute-only studies.
    name:
        Display name used in reports.
    power_corridor:
        Optional system-wide power cap in watts.  Purely declarative at
        this layer: corridor-aware schedulers read it through the
        scheduler context and keep aggregate draw below it; the streaming
        invariant checker audits that they did.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        topology: Topology,
        pfs: Optional[Pfs] = None,
        *,
        name: str = "cluster",
        power_corridor: Optional[float] = None,
    ) -> None:
        if not nodes:
            raise PlatformError("Platform needs at least one node")
        if power_corridor is not None and power_corridor <= 0:
            raise PlatformError(
                f"power_corridor must be > 0, got {power_corridor}"
            )
        if topology.num_nodes != len(nodes):
            raise PlatformError(
                f"Topology sized for {topology.num_nodes} nodes, got {len(nodes)}"
            )
        self.name = name
        #: Size of the machine (read on every scheduler invocation).
        self.num_nodes: int = len(nodes)
        #: Every node, as a read-only sequence (see :class:`Fleet`).
        self.nodes: Fleet = nodes if isinstance(nodes, Fleet) else Fleet(list(nodes))
        self.topology = topology
        self.pfs = pfs
        self.power_corridor: Optional[float] = (
            float(power_corridor) if power_corridor is not None else None
        )
        #: Power-transition listener (the monitor's meter when power
        #: accounting is on).  Receives every node state change from
        #: :meth:`_node_changed`, which is the single funnel all
        #: allocate/deallocate/fail/repair transitions pass through.
        self._power_listener = None

        # Incremental allocation indices.  Schedulers poll free_nodes() /
        # num_free_nodes() on every invocation; an O(n) node scan per call
        # dominated E5 profiles on large machines.  Nodes notify the
        # platform on every state transition (allocate/deallocate/fail/
        # repair), which keeps a sorted free-index list and an allocated
        # set current at O(log n + shift) per *change* instead of O(n) per
        # *query*.  A node can belong to one platform at a time.  A node
        # not built yet is free, so an unbuilt fleet is never walked.
        self._free_ids: List[int] = list(range(self.num_nodes))
        self._allocated_ids: Set[int] = set()
        #: The free_nodes() snapshot, retaken only after a change.
        self._free_cache: Optional[FreeNodes] = None
        self.nodes._pool = self
        if self.nodes.built:
            for expected, node in enumerate(self.nodes._nodes):
                if node is None:
                    continue
                if node.index != expected:
                    raise PlatformError(
                        f"Node indices must be dense: expected {expected}, "
                        f"got {node.index}"
                    )
                node._pool = self
                topology.attach_node(node)
                self._node_changed(node)

    # -- sizing -----------------------------------------------------------

    @property
    def total_flops(self) -> float:
        return sum(node.flops for node in self.nodes)

    # -- allocation views ---------------------------------------------------

    def _node_changed(self, node: Node) -> None:
        """Node state-transition hook keeping the incremental indices exact."""
        index = node.index
        free_ids = self._free_ids
        self._free_cache = None
        pos = bisect_left(free_ids, index)
        listed = pos < len(free_ids) and free_ids[pos] == index
        if node.state is NodeState.FREE and not node.failed:
            if not listed:
                free_ids.insert(pos, index)
        elif listed:
            del free_ids[pos]
        if node.assigned_job is not None:
            self._allocated_ids.add(index)
        else:
            self._allocated_ids.discard(index)
        if self._power_listener is not None:
            self._power_listener.node_changed(node)

    def free_nodes(self) -> FreeNodes:
        """Nodes currently not held by any job, in index order.

        Returns a cached read-only view that is replaced — never mutated —
        on node state changes, so one held across state changes keeps the
        contents it had when taken (the stale-snapshot semantics of the
        fresh-list implementations before it).
        """
        cache = self._free_cache
        if cache is None:
            cache = self._free_cache = FreeNodes(self._free_ids.copy(), self.nodes)
        return cache

    def num_free_nodes(self) -> int:
        return len(self._free_ids)

    def num_allocated_nodes(self) -> int:
        """Nodes currently held by jobs (excludes failed-but-idle nodes)."""
        return len(self._allocated_ids)

    def utilization(self) -> float:
        """Fraction of nodes currently allocated."""
        return self.num_allocated_nodes() / self.num_nodes

    # -- power --------------------------------------------------------------

    @property
    def power_enabled(self) -> bool:
        """True when any node declares a non-zero draw."""
        uniform = self.nodes.uniform_watts
        if uniform is not None:
            return uniform[1] > 0
        return any(node.peak_watts > 0 for node in self.nodes)

    def power_profile(self) -> Optional[dict]:
        """Per-node draw and corridor as a JSON-safe dict; None when off.

        Uniform fleets (everything the loader builds) collapse to scalar
        ``idle``/``peak``; hand-built heterogeneous platforms get per-node
        lists.  Embedded in the ``sim.start`` trace record so a post-hoc
        :func:`~repro.tracing.check_trace` can re-arm the power-corridor
        invariant from the trace alone.
        """
        if not self.power_enabled:
            return None
        uniform = self.nodes.uniform_watts
        if uniform is not None:
            idle, peak = uniform
        else:
            idle = [node.idle_watts for node in self.nodes]
            peak = [node.peak_watts for node in self.nodes]
            if len(set(idle)) == 1 and len(set(peak)) == 1:
                idle, peak = idle[0], peak[0]
        return {"idle": idle, "peak": peak, "corridor": self.power_corridor}

    def max_start_power(self, count: int) -> float:
        """Most that starting a job on any ``count`` nodes can add to the draw.

        The idle-to-peak steps of the ``count`` hungriest nodes, summed
        largest first.
        """
        uniform = self.nodes.uniform_watts
        if uniform is not None:
            steps = [uniform[1] - uniform[0]] * min(count, self.num_nodes)
        else:
            steps = nlargest(
                count, (node.peak_watts - node.idle_watts for node in self.nodes)
            )
        return sum(steps)

    def current_power(self) -> float:
        """Aggregate instantaneous draw in watts (exact recomputation).

        O(n) in the node count, but only consulted by corridor-aware
        scheduling decisions and tests — the hot energy integral is
        maintained incrementally by the monitor's meter instead.
        """
        return sum(node.power_watts for node in self.nodes)

    # -- routing ------------------------------------------------------------

    def route(self, src: int, dst: int) -> Route:
        """Node-to-node route."""
        return self.topology.route(src, dst)

    def route_to_pfs(self, src: int) -> Route:
        """Route a write takes from ``src`` to the PFS (excl. PFS service)."""
        self._require_pfs()
        return self.topology.route(src, PFS)

    def route_from_pfs(self, dst: int) -> Route:
        """Route a read takes from the PFS to ``dst`` (excl. PFS service)."""
        self._require_pfs()
        return self.topology.route(PFS, dst)

    def _require_pfs(self) -> None:
        if self.pfs is None:
            raise PlatformError(f"Platform {self.name!r} has no PFS configured")

    # -- snapshot/restore ---------------------------------------------------

    def shared_resources(self) -> List:
        """Every shared resource of the machine, in a deterministic walk.

        Snapshot capture references resources positionally through this
        list (node-owned resources in index order, then the PFS service
        resources, then the topology's own list), so capture and restore
        agree on indices for any platform built from the same description.
        Resources owned by both a node and the topology (a star topology's
        NICs) are deduplicated by identity, keeping indices unique.
        """
        resources: List = []
        seen: Set[int] = set()

        def add(res) -> None:
            if res is not None and id(res) not in seen:
                seen.add(id(res))
                resources.append(res)

        for node in self.nodes:
            add(node.cpu)
            add(node.gpu)
            add(node.up)
            add(node.down)
            if node.bb is not None:
                add(node.bb.read)
                add(node.bb.write)
        if self.pfs is not None:
            add(self.pfs.read)
            add(self.pfs.write)
        for res in self.topology.shared_resources():
            add(res)
        return resources

    def capture_state(self) -> dict:
        """Snapshot the mutable machine state (node/occupancy flags only)."""
        nodes = []
        for node in self.nodes:
            nodes.append(
                {
                    "state": node.state.value,
                    "assigned_jid": (
                        node.assigned_job.jid
                        if node.assigned_job is not None
                        else None
                    ),
                    "failed": node.failed,
                    "bb_used": node.bb.used if node.bb is not None else None,
                }
            )
        return {
            "nodes": nodes,
            "pfs_used": self.pfs.used if self.pfs is not None else None,
        }

    def restore_state(self, state: dict, jobs_by_jid: dict) -> None:
        """Apply a captured machine state to this (freshly built) platform."""
        for node, rec in zip(self.nodes, state["nodes"]):
            node.state = NodeState(rec["state"])
            jid = rec["assigned_jid"]
            node.assigned_job = jobs_by_jid[jid] if jid is not None else None
            node.failed = rec["failed"]
            if node.bb is not None and rec["bb_used"] is not None:
                node.bb.used = rec["bb_used"]
            self._node_changed(node)
        if self.pfs is not None and state["pfs_used"] is not None:
            self.pfs.used = state["pfs_used"]

    def __repr__(self) -> str:
        return (
            f"<Platform {self.name!r} nodes={self.num_nodes} "
            f"pfs={'yes' if self.pfs else 'no'}>"
        )
