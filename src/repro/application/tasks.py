"""Task types composing application phases."""

from __future__ import annotations

from enum import Enum
from math import inf
from typing import Mapping, Optional, Union

from repro._input import InputError
from repro.expressions import Expression, ExpressionError, compiled_expression

ExprLike = Union[str, int, float, Expression]


class ApplicationError(InputError):
    """Raised for invalid application models."""


def magnitude(value: ExprLike, what: str) -> Expression:
    """``value`` as the expression every magnitude is held as.

    One interpreter evaluates it, behind a wrapper that folds a literal-only
    expression to a constant and memoizes any other by the values of its
    free variables (:mod:`repro.expressions.compiler`).
    """
    try:
        return compiled_expression(value)
    except ExpressionError as exc:
        raise ApplicationError(f"Invalid expression for {what}: {exc}") from exc


def evaluate(expr: Expression, variables: Mapping[str, float], what: str) -> float:
    """``expr`` under ``variables``: a float in ``0 <= value < inf``.

    The one place a magnitude is evaluated and bounded; ``what`` names it in
    the :class:`ApplicationError` raised when it does not evaluate, or
    evaluates to a negative, infinite or NaN amount.
    """
    try:
        value = float(expr.evaluate(variables))
    except ExpressionError as exc:
        raise ApplicationError(f"Evaluating {what} failed: {exc}") from exc
    if not 0 <= value < inf:
        kind = "negative" if value < 0 else "non-finite"
        raise ApplicationError(f"{what} evaluated to {kind} value {value}")
    return value


class Distribution(Enum):
    """How a task magnitude maps onto the allocation.

    ``EVEN``
        The expression gives the *total* amount; each node gets an equal
        share (strong scaling — more nodes, less per node).
    ``PER_NODE``
        The expression gives the amount *per node* (weak scaling — total
        grows with the allocation).
    """

    EVEN = "even"
    PER_NODE = "per_node"


class CommPattern(Enum):
    """Communication patterns a :class:`CommTask` can express.

    ``bytes`` is interpreted per pattern (matching common benchmark usage):

    * ``ALL_TO_ALL`` — every ordered node pair exchanges ``bytes``.
    * ``RING`` — node *i* sends ``bytes`` to node *(i+1) mod n``.
    * ``BCAST`` — the root (rank 0 of the allocation) sends ``bytes`` to
      every other node.
    * ``GATHER`` — every non-root node sends ``bytes`` to the root.
    * ``PAIRWISE`` — nodes pair up (0↔1, 2↔3, …) and exchange ``bytes``.
    """

    ALL_TO_ALL = "alltoall"
    RING = "ring"
    BCAST = "bcast"
    GATHER = "gather"
    PAIRWISE = "pairwise"


class Task:
    """Common base: a named unit of work inside a phase."""

    kind: str = "task"

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.kind

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CpuTask(Task):
    """A computation of ``flops`` distributed over the allocation.

    ``serial_fraction`` (Amdahl's *s*, default 0) models the part of the
    work that does not parallelize: with EVEN distribution each node
    computes ``total x (s + (1 - s) / n)`` flops, so the task's duration
    follows Amdahl's law — the realism knob that bounds how much a
    malleable expansion can actually help (ablation E9).
    """

    kind = "cpu"

    def __init__(
        self,
        flops: ExprLike,
        *,
        distribution: Distribution = Distribution.EVEN,
        serial_fraction: ExprLike = 0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.flops = magnitude(flops, f"{self.kind}.flops")
        self.distribution = distribution
        self.serial_fraction = magnitude(serial_fraction, f"{self.kind}.serial_fraction")

    def flops_per_node(self, variables: Mapping[str, float], num_nodes: int) -> float:
        """Work each node performs for this task instance (Amdahl-scaled)."""
        total = evaluate(self.flops, variables, f"{self.name}.flops")
        if self.distribution is not Distribution.EVEN:
            return total
        serial = evaluate(self.serial_fraction, variables, f"{self.name}.serial_fraction")
        if serial > 1:
            raise ApplicationError(
                f"{self.name}: serial_fraction must be <= 1, got {serial}"
            )
        return total * (serial + (1.0 - serial) / num_nodes)


class GpuTask(Task):
    """A GPU computation of ``flops`` distributed over the allocation.

    Each node's GPUs are modelled as one aggregate accelerator resource
    (``gpus x gpu_flops``); EVEN distribution splits the total across the
    allocation like :class:`CpuTask`.
    """

    kind = "gpu"

    def __init__(
        self,
        flops: ExprLike,
        *,
        distribution: Distribution = Distribution.EVEN,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.flops = magnitude(flops, f"{self.kind}.flops")
        self.distribution = distribution

    def flops_per_node(self, variables: Mapping[str, float], num_nodes: int) -> float:
        """GPU work each node performs for this task instance."""
        total = evaluate(self.flops, variables, f"{self.name}.flops")
        if self.distribution is Distribution.EVEN:
            return total / num_nodes
        return total


class CommTask(Task):
    """Communication among the allocation's nodes following a pattern."""

    kind = "comm"

    def __init__(
        self,
        nbytes: ExprLike,
        *,
        pattern: CommPattern = CommPattern.ALL_TO_ALL,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.nbytes = magnitude(nbytes, f"{self.kind}.bytes")
        self.pattern = pattern

    def message_size(self, variables: Mapping[str, float]) -> float:
        """Per-message bytes for this task instance."""
        return evaluate(self.nbytes, variables, f"{self.name}.bytes")

    def flows(self, num_nodes: int) -> list[tuple[int, int]]:
        """Ordered (src_rank, dst_rank) pairs the pattern generates.

        Ranks are positions within the allocation, not node indices.
        """
        n = num_nodes
        if n <= 1:
            return []
        if self.pattern is CommPattern.ALL_TO_ALL:
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        if self.pattern is CommPattern.RING:
            return [(i, (i + 1) % n) for i in range(n)]
        if self.pattern is CommPattern.BCAST:
            return [(0, j) for j in range(1, n)]
        if self.pattern is CommPattern.GATHER:
            return [(i, 0) for i in range(1, n)]
        if self.pattern is CommPattern.PAIRWISE:
            return [
                pair
                for k in range(0, n - 1, 2)
                for pair in ((k, k + 1), (k + 1, k))
            ]
        raise ApplicationError(f"Unhandled pattern {self.pattern}")  # pragma: no cover


class _IoTask(Task):
    """Shared shape of PFS / burst-buffer read and write tasks."""

    def __init__(
        self,
        nbytes: ExprLike,
        *,
        distribution: Distribution = Distribution.EVEN,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.nbytes = magnitude(nbytes, f"{self.kind}.bytes")
        self.distribution = distribution

    def bytes_per_node(self, variables: Mapping[str, float], num_nodes: int) -> float:
        total = evaluate(self.nbytes, variables, f"{self.name}.bytes")
        if self.distribution is Distribution.EVEN:
            return total / num_nodes
        return total


class PfsReadTask(_IoTask):
    """Each node reads its share from the parallel file system."""

    kind = "pfs_read"


class PfsWriteTask(_IoTask):
    """Each node writes its share to the parallel file system."""

    kind = "pfs_write"


class BbReadTask(_IoTask):
    """Each node reads from its node-local burst buffer."""

    kind = "bb_read"


class BbWriteTask(_IoTask):
    """Each node writes to its node-local burst buffer.

    ``charge`` controls whether the write occupies BB capacity until a
    later ``bb_release`` (default True).
    """

    kind = "bb_write"

    def __init__(
        self,
        nbytes: ExprLike,
        *,
        distribution: Distribution = Distribution.EVEN,
        charge: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(nbytes, distribution=distribution, name=name)
        self.charge = charge


class DelayTask(Task):
    """A fixed-duration wait (license queues, staging, ramp-up)."""

    kind = "delay"

    def __init__(self, seconds: ExprLike, *, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.seconds = magnitude(seconds, f"{self.kind}.seconds")

    def duration(self, variables: Mapping[str, float]) -> float:
        return evaluate(self.seconds, variables, f"{self.name}.seconds")


class EvolvingRequest(Task):
    """An application-initiated allocation-change request.

    ``num_nodes`` evaluates to the desired total allocation size at this
    point.  The batch system forwards the request to the scheduler, which
    may grant it fully, partially, or not at all; execution continues with
    whatever the scheduler decides (the request is non-blocking unless
    ``blocking`` is set).
    """

    kind = "evolving_request"

    def __init__(
        self,
        num_nodes: ExprLike,
        *,
        blocking: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.num_nodes = magnitude(num_nodes, f"{self.kind}.num_nodes")
        self.blocking = blocking

    def desired_nodes(self, variables: Mapping[str, float]) -> int:
        value = evaluate(self.num_nodes, variables, f"{self.name}.num_nodes")
        desired = int(round(value))
        if desired < 1:
            raise ApplicationError(
                f"{self.name}: requested allocation must be >= 1, got {desired}"
            )
        return desired
