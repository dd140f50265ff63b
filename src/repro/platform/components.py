"""Compute nodes, parallel file system, and burst buffers."""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from math import inf
from typing import Callable, List, Optional, Tuple

from repro._input import InputError
from repro.sharing import SharedResource


class PlatformError(InputError):
    """Raised for invalid platform descriptions or illegal state changes."""


def _node_name(index: int) -> str:
    """Default name of node ``index``; its CPU, NIC and burst buffer derive theirs from it."""
    return f"node{index:04d}"


class NodeState(Enum):
    """Allocation state of a compute node, as the batch system sees it."""

    FREE = "free"
    ALLOCATED = "allocated"


class BurstBuffer:
    """Node-local storage with independent read/write bandwidth.

    Capacity is tracked as a simple occupancy counter — the engine charges
    writes and credits releases; exceeding capacity raises, which surfaces
    modelling errors (the paper's burst buffers are sized for checkpoints).
    """

    def __init__(
        self,
        name: str,
        read_bw: float,
        write_bw: float,
        capacity: float = inf,
    ) -> None:
        self._check(name, read_bw, write_bw, capacity)
        self.name = name
        self.read = SharedResource(f"{name}.read", read_bw)
        self.write = SharedResource(f"{name}.write", write_bw)
        self.capacity = float(capacity)
        self.used = 0.0

    @staticmethod
    def _check(name: str, read_bw: float, write_bw: float, capacity: float) -> None:
        if read_bw <= 0 or write_bw <= 0:
            raise PlatformError(f"BurstBuffer {name!r}: bandwidths must be > 0")
        if capacity <= 0:
            raise PlatformError(f"BurstBuffer {name!r}: capacity must be > 0")

    def charge(self, nbytes: float) -> None:
        """Account ``nbytes`` of occupancy (called when a BB write finishes)."""
        if nbytes < 0:
            raise PlatformError("Cannot charge negative bytes")
        if self.used + nbytes > self.capacity * (1 + 1e-9):
            raise PlatformError(
                f"BurstBuffer {self.name!r} overflow: "
                f"{self.used + nbytes:g} > capacity {self.capacity:g}"
            )
        self.used += nbytes

    def release(self, nbytes: float) -> None:
        """Free ``nbytes`` of occupancy (e.g. checkpoint consumed/deleted)."""
        if nbytes < 0:
            raise PlatformError("Cannot release negative bytes")
        self.used = max(0.0, self.used - nbytes)

    @property
    def available(self) -> float:
        """Remaining capacity in bytes."""
        return max(0.0, self.capacity - self.used)

    def __repr__(self) -> str:
        return f"<BurstBuffer {self.name} used={self.used:g}/{self.capacity:g}>"


class Node:
    """A compute node.

    The CPU is one shared flops-capacity resource: parallel tasks of the
    *same* job and transient overlap during reconfiguration share it under
    max-min fairness, exactly like SimGrid hosts.

    Attributes
    ----------
    index:
        Dense integer id, also the node's rank order inside allocations.
    cpu:
        Flops-rate resource.
    up, down:
        NIC ingress/egress bandwidth resources (set by the topology).
    bb:
        Optional node-local :class:`BurstBuffer`.
    """

    __slots__ = (
        "index", "name", "flops", "cores", "cpu", "gpus", "gpu_flops", "gpu",
        "up", "down", "bb", "idle_watts", "peak_watts", "state",
        "assigned_job", "failed", "_pool",
    )  # fmt: skip

    def __init__(
        self,
        index: int,
        flops: float,
        *,
        name: Optional[str] = None,
        cores: int = 1,
        gpus: int = 0,
        gpu_flops: float = 0.0,
        bb: Optional[BurstBuffer] = None,
        idle_watts: float = 0.0,
        peak_watts: float = 0.0,
    ) -> None:
        self._check(index, flops, cores, gpus, gpu_flops, idle_watts, peak_watts)
        self._setup(index, name, flops, cores, gpus, gpu_flops, bb, idle_watts, peak_watts)

    @classmethod
    def fleet(
        cls,
        count: int,
        flops: float,
        *,
        cores: int = 1,
        gpus: int = 0,
        gpu_flops: float = 0.0,
        burst_buffer: Optional[Tuple[float, float, float]] = None,
        idle_watts: float = 0.0,
        peak_watts: float = 0.0,
    ) -> "Fleet":
        """``count`` identical nodes indexed from 0, each built on first access.

        The parameters are checked here, once; ``burst_buffer`` is the
        ``(read_bw, write_bw, capacity)`` of the :class:`BurstBuffer` each
        node gets.
        """
        cls._check(0, flops, cores, gpus, gpu_flops, idle_watts, peak_watts)
        if burst_buffer:
            BurstBuffer._check(_node_name(0) + ".bb", *burst_buffer)

        def make(index: int) -> "Node":
            node = cls.__new__(cls)
            bb = BurstBuffer(_node_name(index) + ".bb", *burst_buffer) if burst_buffer else None
            node._setup(index, None, flops, cores, gpus, gpu_flops, bb, idle_watts, peak_watts)
            return node

        return Fleet([None] * count, make, (float(idle_watts), float(peak_watts)))

    @staticmethod
    def _check(index, flops, cores, gpus, gpu_flops, idle_watts, peak_watts) -> None:
        if flops <= 0:
            raise PlatformError(f"Node {index}: flops must be > 0, got {flops}")
        if cores < 1:
            raise PlatformError(f"Node {index}: cores must be >= 1, got {cores}")
        if gpus < 0:
            raise PlatformError(f"Node {index}: gpus must be >= 0, got {gpus}")
        if gpus > 0 and gpu_flops <= 0:
            raise PlatformError(
                f"Node {index}: gpu_flops must be > 0 when gpus > 0"
            )
        if idle_watts < 0:
            raise PlatformError(
                f"Node {index}: idle_watts must be >= 0, got {idle_watts}"
            )
        if peak_watts < idle_watts:
            raise PlatformError(
                f"Node {index}: peak_watts must be >= idle_watts, "
                f"got {peak_watts} < {idle_watts}"
            )

    def _setup(self, index, name, flops, cores, gpus, gpu_flops, bb, idle_watts, peak_watts):
        self.index = index
        self.name = name or _node_name(index)
        self.flops = float(flops)
        self.cores = cores
        self.cpu = SharedResource(f"{self.name}.cpu", flops)
        self.gpus = gpus
        self.gpu_flops = float(gpu_flops)
        #: Aggregate GPU compute of the node (None when it has no GPUs);
        #: tasks on the same node's GPUs share it max-min fair.
        self.gpu: Optional[SharedResource] = (
            SharedResource(f"{self.name}.gpu", gpus * gpu_flops) if gpus else None
        )
        self.up: Optional[SharedResource] = None
        self.down: Optional[SharedResource] = None
        self.bb = bb
        #: Electrical draw while idle-but-up and while running a job, in
        #: watts.  Both default to 0 (power accounting off): a powerless
        #: node integrates zero energy and never constrains a corridor.
        self.idle_watts = float(idle_watts)
        self.peak_watts = float(peak_watts)
        self.state = NodeState.FREE
        #: Job currently holding this node (set by the batch system).
        self.assigned_job = None
        #: True while the node is down (failure injection).
        self.failed = False
        #: Owning :class:`~repro.platform.platform.Platform`, set when the
        #: node is attached to one; state changes notify its incremental
        #: free/allocated indices.  None for standalone nodes (tests).
        self._pool = None

    @property
    def free(self) -> bool:
        """True while no job holds the node and it is operational."""
        return self.state is NodeState.FREE and not self.failed

    @property
    def power_watts(self) -> float:
        """Instantaneous draw: 0 down, peak while allocated, idle otherwise.

        A failed-but-still-allocated node reads 0: the failure took it off
        the power rail even though the batch system has not yet reclaimed
        the allocation.
        """
        if self.failed:
            return 0.0
        if self.state is NodeState.ALLOCATED:
            return self.peak_watts
        return self.idle_watts

    def fail(self) -> None:
        """Mark the node as down; it stops being schedulable immediately.

        An allocated node stays formally allocated until its job is killed
        and releases it; the ``failed`` flag just keeps it out of the free
        pool afterwards.
        """
        self.failed = True
        if self._pool is not None:
            self._pool._node_changed(self)

    def repair(self) -> None:
        """Bring the node back into service."""
        self.failed = False
        if self._pool is not None:
            self._pool._node_changed(self)

    def allocate(self, job) -> None:
        """Mark the node as held by ``job``; double allocation is an error."""
        if self.state is not NodeState.FREE:
            raise PlatformError(
                f"Node {self.name} already allocated to "
                f"{getattr(self.assigned_job, 'name', self.assigned_job)!r}"
            )
        self.state = NodeState.ALLOCATED
        self.assigned_job = job
        if self._pool is not None:
            self._pool._node_changed(self)

    def deallocate(self) -> None:
        """Return the node to the free pool."""
        if self.state is NodeState.FREE:
            raise PlatformError(f"Node {self.name} is not allocated")
        self.state = NodeState.FREE
        self.assigned_job = None
        if self._pool is not None:
            self._pool._node_changed(self)

    def __repr__(self) -> str:
        return f"<Node {self.name} {self.state.value} flops={self.flops:g}>"


class Fleet(Sequence):
    """Read-only node sequence whose members are built on first access.

    ``len``, int / negative / slice indexing (slices are plain lists) and
    in-order iteration behave like the list of all nodes; reaching an
    unbuilt member builds it, hands it to the owning platform (back-pointer,
    NIC links) and keeps it, so ``fleet[i] is fleet[i]``.  A machine thus
    costs what the workload touches (contract: docs/INTERNALS.md, "The
    fleet").
    """

    __slots__ = ("_nodes", "_make", "_pool", "built", "uniform_watts")

    def __init__(
        self,
        nodes: List[Optional[Node]],
        make: Optional[Callable[[int], Node]] = None,
        uniform_watts: Optional[Tuple[float, float]] = None,
    ) -> None:
        #: One slot per node, ``None`` until built.
        self._nodes = nodes
        self._make = make
        #: The :class:`~repro.platform.platform.Platform` that owns the
        #: members, once there is one.
        self._pool = None
        #: How many members exist as objects.
        self.built = len(nodes) - nodes.count(None)
        #: ``(idle_watts, peak_watts)`` every member shares; None when the
        #: members were built by hand and may differ.
        self.uniform_watts = uniform_watts

    def _build(self, index: int) -> Node:
        node = self._nodes[index] = self._make(index)
        self.built += 1
        pool = self._pool
        if pool is not None:
            node._pool = pool
            pool.topology.attach_node(node)
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, item):
        nodes = self._nodes
        if isinstance(item, slice):
            build = self._build
            return [nodes[i] or build(i) for i in range(len(nodes))[item]]
        return nodes[item] or self._build(range(len(nodes))[item])

    def __iter__(self):
        nodes = self._nodes
        if self.built == len(nodes):
            return iter(nodes)
        return (node or self._build(index) for index, node in enumerate(nodes))


class Pfs:
    """The parallel file system: shared read and write bandwidth.

    All nodes reaching the PFS share these two resources — the single most
    important contention point for I/O-heavy batch workloads (experiment
    E4).  ``capacity`` optionally tracks occupancy like a burst buffer.
    """

    def __init__(
        self,
        read_bw: float,
        write_bw: float,
        *,
        name: str = "pfs",
        capacity: float = inf,
    ) -> None:
        if read_bw <= 0 or write_bw <= 0:
            raise PlatformError(f"Pfs {name!r}: bandwidths must be > 0")
        self.name = name
        self.read = SharedResource(f"{name}.read", read_bw)
        self.write = SharedResource(f"{name}.write", write_bw)
        self.capacity = float(capacity)
        self.used = 0.0

    def __repr__(self) -> str:
        return (
            f"<Pfs {self.name} read={self.read.capacity:g}B/s "
            f"write={self.write.capacity:g}B/s>"
        )
