"""Failure descriptions and the synthetic failure-trace generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro._input import InputError

if TYPE_CHECKING:  # pragma: no cover - numpy loads when a generator first runs
    import numpy as np


class FailureError(InputError):
    """Raised for invalid failure descriptions."""


@dataclass(frozen=True)
class Failure:
    """One node fault.

    Attributes
    ----------
    time:
        Simulated instant the node fails.
    node_index:
        Which node.
    downtime:
        Repair duration in seconds; the node returns at ``time + downtime``.
    """

    time: float
    node_index: int
    downtime: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FailureError(f"Failure time must be >= 0, got {self.time}")
        if self.node_index < 0:
            raise FailureError(f"node_index must be >= 0, got {self.node_index}")
        if self.downtime <= 0:
            raise FailureError(f"downtime must be > 0, got {self.downtime}")


def generate_failures(
    *,
    num_nodes: int,
    horizon: float,
    mtbf: float,
    mean_repair: float,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[Failure]:
    """Poisson failures per node over ``[0, horizon]``.

    Each node fails independently with exponential inter-failure times of
    mean ``mtbf``; repairs are exponential with mean ``mean_repair``.
    Overlapping faults on one node are merged by skipping faults that occur
    while the node is still down.  All draws come from a single injected
    generator — ``rng`` when given (callers deriving several streams from
    one master seed), else ``np.random.default_rng(seed)``.
    """
    if num_nodes < 1:
        raise FailureError("num_nodes must be >= 1")
    if horizon <= 0:
        raise FailureError("horizon must be > 0")
    if mtbf <= 0 or mean_repair <= 0:
        raise FailureError("mtbf and mean_repair must be > 0")
    expected = num_nodes * horizon / (mtbf + mean_repair)
    if expected > 1e6:
        raise FailureError(
            f"mtbf {mtbf:g} s over a horizon of {horizon:g} s on {num_nodes} nodes "
            f"is about {expected:.3g} failures: more than a run can hold"
        )

    if rng is None:
        import numpy as np

        rng = np.random.default_rng(seed)
    failures: List[Failure] = []
    for node in range(num_nodes):
        t = float(rng.exponential(mtbf))
        while t < horizon:
            downtime = max(1e-6, float(rng.exponential(mean_repair)))
            failures.append(Failure(time=t, node_index=node, downtime=downtime))
            t += downtime + float(rng.exponential(mtbf))
    failures.sort(key=lambda f: (f.time, f.node_index))
    return failures
