"""Phases and the application model aggregate."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.application.tasks import (
    ApplicationError,
    EvolvingRequest,
    ExprLike,
    Task,
    evaluate,
    magnitude,
)


class Phase:
    """A task list repeated for a number of iterations.

    Parameters
    ----------
    tasks:
        Executed sequentially within each iteration by default (ElastiSim
        semantics; each task is already node-parallel).  With
        ``parallel=True`` the phase's tasks all run *concurrently* and the
        iteration ends when the slowest finishes — modelling overlapped
        compute/communication/I-O.
    iterations:
        Expression evaluated once at phase entry (e.g. ``"num_timesteps"``
        from job arguments).  Must be >= 1.
    scheduling_point:
        If True (default), the end of *every iteration* is a scheduling
        point where a malleable job may be reconfigured.  Set False for
        phases that must not be disturbed (e.g. tightly coupled solves).
    name:
        Diagnostic label.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        *,
        iterations: ExprLike = 1,
        scheduling_point: bool = True,
        parallel: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if not tasks:
            raise ApplicationError(f"Phase {name!r} has no tasks")
        for task in tasks:
            if not isinstance(task, Task):
                raise ApplicationError(f"Phase {name!r}: {task!r} is not a Task")
        self.tasks = list(tasks)
        self.iterations = magnitude(iterations, f"phase {name!r} iterations")
        self.scheduling_point = scheduling_point
        self.parallel = parallel
        self.name = name or "phase"
        if parallel and any(isinstance(t, EvolvingRequest) for t in self.tasks):
            raise ApplicationError(
                f"Phase {self.name!r}: evolving requests cannot be part of a "
                "parallel task group (reconfiguration must be serialized)"
            )

    def num_iterations(self, variables: Mapping[str, float]) -> int:
        """Evaluate the iteration count for the current job context."""
        count = int(round(evaluate(self.iterations, variables, f"phase {self.name!r} iterations")))
        if count < 1:
            raise ApplicationError(
                f"Phase {self.name!r}: iterations must be >= 1, got {count}"
            )
        return count

    def __repr__(self) -> str:
        return f"<Phase {self.name!r} tasks={len(self.tasks)}>"


class ApplicationModel:
    """What a job executes: an ordered list of phases.

    Parameters
    ----------
    phases:
        Executed in order.
    data_per_node:
        Expression for the bytes of application state held per node —
        the quantity redistributed when a malleable job is reconfigured.
        Defaults to 0 (free reconfiguration).
    name:
        Model label for reports.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        *,
        data_per_node: ExprLike = 0,
        name: str = "application",
    ) -> None:
        if not phases:
            raise ApplicationError(f"Application {name!r} has no phases")
        for phase in phases:
            if not isinstance(phase, Phase):
                raise ApplicationError(f"Application {name!r}: {phase!r} is not a Phase")
        self.phases = list(phases)
        self.data_per_node = magnitude(data_per_node, f"application {name!r} data_per_node")
        self.name = name

    def redistribution_bytes_per_node(self, variables: Mapping[str, float]) -> float:
        """Bytes/node to move when reconfiguring under ``variables``."""
        return evaluate(
            self.data_per_node, variables, f"application {self.name!r} data_per_node"
        )

    def __repr__(self) -> str:
        return f"<ApplicationModel {self.name!r} phases={len(self.phases)}>"
