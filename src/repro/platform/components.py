"""Compute nodes, parallel file system, and burst buffers."""

from __future__ import annotations

from enum import Enum
from math import inf
from typing import List, Optional, Tuple

from repro.sharing import SharedResource


class PlatformError(Exception):
    """Raised for invalid platform descriptions or illegal state changes."""


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
        if read_bw <= 0 or write_bw <= 0:
            raise PlatformError(f"BurstBuffer {name!r}: bandwidths must be > 0")
        if capacity <= 0:
            raise PlatformError(f"BurstBuffer {name!r}: capacity must be > 0")
        self.name = name
        self.read = SharedResource(f"{name}.read", read_bw)
        self.write = SharedResource(f"{name}.write", write_bw)
        self.capacity = float(capacity)
        self.used = 0.0

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
    ) -> List["Node"]:
        """``count`` identical nodes indexed from 0, their parameters checked once.

        ``burst_buffer`` is the ``(read_bw, write_bw, capacity)`` of the
        :class:`BurstBuffer` each node gets.
        """
        cls._check(0, flops, cores, gpus, gpu_flops, idle_watts, peak_watts)
        nodes = [cls.__new__(cls) for _ in range(count)]
        for index, node in enumerate(nodes):
            bb = BurstBuffer(f"node{index:04d}.bb", *burst_buffer) if burst_buffer else None
            node._setup(index, None, flops, cores, gpus, gpu_flops, bb, idle_watts, peak_watts)
        return nodes

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
        self.name = name or f"node{index:04d}"
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

    def _notify_pool(self) -> None:
        pool = self._pool
        if pool is not None:
            pool._node_changed(self)

    def fail(self) -> None:
        """Mark the node as down; it stops being schedulable immediately.

        An allocated node stays formally allocated until its job is killed
        and releases it; the ``failed`` flag just keeps it out of the free
        pool afterwards.
        """
        self.failed = True
        self._notify_pool()

    def repair(self) -> None:
        """Bring the node back into service."""
        self.failed = False
        self._notify_pool()

    def allocate(self, job) -> None:
        """Mark the node as held by ``job``; double allocation is an error."""
        if self.state is not NodeState.FREE:
            raise PlatformError(
                f"Node {self.name} already allocated to "
                f"{getattr(self.assigned_job, 'name', self.assigned_job)!r}"
            )
        self.state = NodeState.ALLOCATED
        self.assigned_job = job
        self._notify_pool()

    def deallocate(self) -> None:
        """Return the node to the free pool."""
        if self.state is NodeState.FREE:
            raise PlatformError(f"Node {self.name} is not allocated")
        self.state = NodeState.FREE
        self.assigned_job = None
        self._notify_pool()

    def __repr__(self) -> str:
        return f"<Node {self.name} {self.state.value} flops={self.flops:g}>"


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
