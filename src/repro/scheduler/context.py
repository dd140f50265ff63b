"""Scheduler invocation protocol: events, system view, decision interface."""

from __future__ import annotations

from enum import Enum
from math import inf
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.job import Job, JobState
from repro.platform import Node, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.system import BatchSystem


class SchedulerError(Exception):
    """Raised when an algorithm issues an invalid decision."""


class InvocationType(Enum):
    """Why the scheduler is being invoked."""

    JOB_SUBMIT = "job_submit"
    JOB_COMPLETION = "job_completion"
    SCHEDULING_POINT = "scheduling_point"
    EVOLVING_REQUEST = "evolving_request"
    RECONFIGURATION = "reconfiguration"
    NODE_FAILURE = "node_failure"
    NODE_REPAIR = "node_repair"
    PERIODIC = "periodic"


class Invocation:
    """One scheduler invocation: its trigger and the job involved (if any)."""

    __slots__ = ("type", "job", "time")

    def __init__(self, type: InvocationType, time: float, job: Optional[Job] = None) -> None:
        self.type = type
        self.time = time
        self.job = job

    def __repr__(self) -> str:
        who = self.job.name if self.job else "-"
        return f"<Invocation {self.type.value} job={who} t={self.time}>"


class SchedulerContext:
    """What an algorithm sees and can do during one invocation.

    Read-only views mirror ElastiSim's job/node lists; decision methods
    validate immediately so algorithm bugs surface at the call site.
    """

    def __init__(self, batch: "BatchSystem") -> None:
        self._batch = batch

    # -- views ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._batch.env.now

    @property
    def platform(self) -> Platform:
        return self._batch.platform

    @property
    def pending_jobs(self) -> List[Job]:
        """Queued jobs in submission order."""
        return list(self._batch.queue)

    @property
    def running_jobs(self) -> List[Job]:
        """Running jobs in start order."""
        return list(self._batch.running)

    def free_nodes(self) -> Sequence[Node]:
        """Currently unallocated nodes in index order (read-only; slices are lists)."""
        return self._batch.platform.free_nodes()

    def num_free_nodes(self) -> int:
        return self._batch.platform.num_free_nodes()

    def expected_end(self, job: Job) -> float:
        """Walltime-based estimate of a running job's end (inf if unknown)."""
        if job.start_time is None or job.walltime == inf:
            return inf
        return job.start_time + job.walltime

    # -- power views ------------------------------------------------------

    @property
    def power_corridor(self) -> Optional[float]:
        """The platform's power cap in watts (None when unconstrained)."""
        return self._batch.platform.power_corridor

    def current_power(self) -> float:
        """Aggregate node draw right now, in watts."""
        return self._batch.current_power()

    def power_headroom(self) -> float:
        """Watts left under the corridor (inf when no corridor is set)."""
        corridor = self._batch.platform.power_corridor
        if corridor is None:
            return inf
        return corridor - self._batch.current_power()

    @staticmethod
    def start_power_cost(nodes: Sequence[Node]) -> float:
        """Extra draw of allocating ``nodes`` (idle → peak transition)."""
        return sum(node.peak_watts - node.idle_watts for node in nodes)

    # -- decisions ------------------------------------------------------------

    def start_job(self, job: Job, nodes: Sequence[Node]) -> None:
        """Start a pending job on exactly ``nodes`` (validated)."""
        if job.state is not JobState.PENDING:
            raise SchedulerError(f"{job.name} is not pending (state {job.state.value})")
        if job not in self._batch.queue:
            raise SchedulerError(f"{job.name} is not in this system's queue")
        nodes = list(nodes)
        if len(set(n.index for n in nodes)) != len(nodes):
            raise SchedulerError(f"{job.name}: duplicate nodes in allocation")
        for node in nodes:
            if not node.free:
                raise SchedulerError(
                    f"{job.name}: node {node.name} is not free "
                    f"(held by {getattr(node.assigned_job, 'name', None)})"
                )
        if not job.min_nodes <= len(nodes) <= job.max_nodes:
            raise SchedulerError(
                f"{job.name}: allocation of {len(nodes)} outside "
                f"{job.min_nodes}..{job.max_nodes}"
            )
        self._batch.start_job(job, nodes)

    def reconfigure_job(self, job: Job, target: Sequence[Node]) -> None:
        """Order a running malleable/evolving job to a new allocation.

        Nodes being *added* are reserved immediately (so no other decision
        can take them); nodes being *removed* are released when the job
        commits the order at its next scheduling point.
        """
        if job.state is not JobState.RUNNING:
            raise SchedulerError(f"{job.name} is not running")
        if not job.is_adaptive:
            raise SchedulerError(
                f"{job.name} is {job.type.value}; only malleable/evolving "
                "jobs can be reconfigured"
            )
        if job.pending_reconfiguration is not None:
            raise SchedulerError(f"{job.name} already has a pending order")
        target = list(target)
        if len(set(n.index for n in target)) != len(target):
            raise SchedulerError(f"{job.name}: duplicate nodes in target")
        if not job.min_nodes <= len(target) <= job.max_nodes:
            raise SchedulerError(
                f"{job.name}: target of {len(target)} outside "
                f"{job.min_nodes}..{job.max_nodes}"
            )
        current = {n.index for n in job.assigned_nodes}
        for node in target:
            if node.index not in current and not node.free:
                raise SchedulerError(
                    f"{job.name}: target node {node.name} is neither free "
                    "nor already part of the job"
                )
        self._batch.order_reconfiguration(job, target)

    def kill_job(self, job: Job, reason: str = "scheduler") -> None:
        """Kill a pending or running job."""
        if job.finished:
            raise SchedulerError(f"{job.name} already finished")
        self._batch.kill_job(job, reason)

    def deny_evolving_request(self, job: Job) -> None:
        """Deny a *blocking* evolving request outright.

        The job resumes with its current allocation.  Policies that never
        grant nor deny leave blocking requesters suspended until resources
        free up (the batch system retries on completions and committed
        reconfigurations); if nothing ever frees, the simulation reports a
        stall rather than deadlocking silently.
        """
        if job.state is not JobState.RUNNING:
            raise SchedulerError(f"{job.name} is not running")
        self._batch.deny_evolving_request(job)
