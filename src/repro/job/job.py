"""The Job class and its lifecycle."""

from __future__ import annotations

from enum import Enum
from math import inf
from typing import Dict, List, Optional, Sequence

from repro._input import InputError
from repro.application import ApplicationModel


class JobError(InputError):
    """Raised on invalid job descriptions or illegal state transitions."""


class JobType(Enum):
    """Who controls the allocation, and when it may change."""

    RIGID = "rigid"
    MOLDABLE = "moldable"
    MALLEABLE = "malleable"
    EVOLVING = "evolving"


class JobClass(Enum):
    """Service class, orthogonal to :class:`JobType`.

    ``BATCH`` jobs queue and may be preempted; ``ON_DEMAND`` jobs expect
    immediate admission — class-aware policies (the shipped
    ``hybrid-corridor`` scheduler) preempt batch victims to make room for
    them.  Class-oblivious policies treat everything as batch.
    """

    BATCH = "batch"
    ON_DEMAND = "on-demand"


class JobState(Enum):
    """Lifecycle states.

    ``PENDING → RUNNING → {COMPLETED, KILLED}``; ``KILLED`` covers both
    walltime overruns and explicit scheduler kills.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"


class ReconfigurationOrder:
    """A scheduler decision to change a malleable job's allocation.

    ``target`` is the complete desired allocation (node objects).  The
    batch system validates it; the engine applies it at the job's next
    scheduling point, charging the redistribution cost.
    """

    __slots__ = ("target", "issued_at")

    def __init__(self, target: Sequence, issued_at: float) -> None:
        if not target:
            raise JobError("Reconfiguration target must contain at least one node")
        self.target = list(target)
        self.issued_at = issued_at

    def __repr__(self) -> str:
        return f"<ReconfigurationOrder to {len(self.target)} nodes @ {self.issued_at}>"


class Job:
    """A batch job: resource request + application model + runtime state.

    Parameters
    ----------
    jid:
        Unique integer id (assigned by the workload or the batch system).
    application:
        What the job executes.
    job_type:
        One of :class:`JobType`.
    submit_time:
        Simulated submission instant in seconds.
    num_nodes:
        The requested allocation for rigid jobs; for moldable / malleable /
        evolving jobs the *preferred* size (scheduler may pick within
        ``min_nodes..max_nodes``).
    min_nodes, max_nodes:
        Allocation bounds for non-rigid jobs.  Default to ``num_nodes`` for
        rigid jobs.
    walltime:
        Kill limit in seconds (``inf`` disables).
    arguments:
        Extra expression variables available to the application model
        (problem sizes, step counts, ...).
    name:
        Display name; defaults to ``job<jid>``.
    user:
        Owning account (for fairness-aware scheduling); defaults to
        ``"user0"``.
    priority:
        Larger values are more important (priority/preemption policies).
    job_class:
        Service class (:class:`JobClass`); defaults to batch.
    checkpoint_bytes:
        Checkpoint footprint on the PFS in bytes.  When set, a
        checkpoint-restart requeue of this job prepends a restart phase
        that reads this many bytes back from the PFS before resuming —
        the preemption cost model.  ``None`` (default) keeps restarts
        free, matching the pre-power behaviour.
    """

    def __init__(
        self,
        jid: int,
        application: ApplicationModel,
        *,
        job_type: JobType = JobType.RIGID,
        submit_time: float = 0.0,
        num_nodes: int = 1,
        min_nodes: Optional[int] = None,
        max_nodes: Optional[int] = None,
        walltime: float = inf,
        arguments: Optional[Dict[str, float]] = None,
        name: Optional[str] = None,
        user: Optional[str] = None,
        priority: int = 0,
        job_class: JobClass = JobClass.BATCH,
        checkpoint_bytes: Optional[float] = None,
    ) -> None:
        if submit_time < 0:
            raise JobError(f"submit_time must be >= 0, got {submit_time}")
        if num_nodes < 1:
            raise JobError(f"num_nodes must be >= 1, got {num_nodes}")
        if walltime <= 0:
            raise JobError(f"walltime must be > 0, got {walltime}")
        if checkpoint_bytes is not None and checkpoint_bytes <= 0:
            raise JobError(
                f"checkpoint_bytes must be > 0, got {checkpoint_bytes}"
            )

        if job_type is JobType.RIGID:
            if min_nodes not in (None, num_nodes) or max_nodes not in (None, num_nodes):
                raise JobError("Rigid jobs cannot set min/max nodes")
            min_nodes = max_nodes = num_nodes
        else:
            min_nodes = min_nodes if min_nodes is not None else 1
            max_nodes = max_nodes if max_nodes is not None else num_nodes
        if not 1 <= min_nodes <= max_nodes:
            raise JobError(
                f"Need 1 <= min_nodes <= max_nodes, got {min_nodes}..{max_nodes}"
            )
        if not min_nodes <= num_nodes <= max_nodes:
            raise JobError(
                f"num_nodes {num_nodes} outside bounds {min_nodes}..{max_nodes}"
            )

        self.jid = jid
        self.name = name or f"job{jid}"
        self.application = application
        self.type = job_type
        self.submit_time = float(submit_time)
        self.num_nodes = num_nodes
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.walltime = float(walltime)
        self.arguments: Dict[str, float] = dict(arguments or {})
        #: Owner account; used by fairness-aware policies.
        self.user = user or "user0"
        #: Larger = more important; used by priority/preemption policies.
        self.priority = int(priority)
        #: Service class (batch vs. on-demand), read by class-aware policies.
        self.job_class = job_class
        #: PFS checkpoint footprint driving restart I/O cost (None = free).
        self.checkpoint_bytes = (
            float(checkpoint_bytes) if checkpoint_bytes is not None else None
        )

        # -- runtime state (owned by the batch system / engine) ------------
        self.state = JobState.PENDING
        self._assigned_nodes: List = []
        #: Bumped on every allocation change; invalidates the cached
        #: expression-variable bindings (see ``expression_variables``).
        self._allocation_generation = 0
        self._variables_cache: Optional[Dict[str, float]] = None
        self._variables_generation = -1
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.kill_reason: Optional[str] = None

        #: Order the engine applies at the next scheduling point.
        self.pending_reconfiguration: Optional[ReconfigurationOrder] = None
        #: Evolving jobs: total nodes the application currently asks for.
        self.evolving_request: Optional[int] = None
        #: Event a *blocking* evolving request waits on; the batch system
        #: triggers it when the request is granted or explicitly denied.
        self.evolving_wait_event = None
        #: Set when the scheduler explicitly denies the current request
        #: (checked by the engine before suspending a blocking request).
        self.evolving_denied = False

        # -- accounting ----------------------------------------------------
        self.scheduling_points_seen = 0
        self.reconfigurations_applied = 0
        self.redistribution_bytes_moved = 0.0

        #: Which attempt this is (> 1 after failure requeues).
        self.attempt = 1
        #: The jid of the original submission when this job is a requeue.
        self.origin_jid: Optional[int] = None
        #: The jid this clone was made from (the *immediate* source, unlike
        #: :attr:`origin_jid` which is the chain root).  Snapshots use it to
        #: rebuild requeue clones by replaying the clone call.
        self.source_jid: Optional[int] = None
        #: Progress watermark set by the engine at every scheduling point:
        #: (phase index, iterations completed in it, iterations total).
        #: Scheduling points are where application state is consistent —
        #: i.e. the natural checkpoint locations.
        self.checkpoint_marker: Optional[tuple] = None

    def clone_for_requeue(
        self, new_jid: int, submit_time: float, *, resume: bool = False
    ) -> "Job":
        """A fresh PENDING copy of this job for resubmission after a fault.

        With ``resume=False`` (default) the clone restarts the application
        from the beginning.  With ``resume=True`` and a recorded
        :attr:`checkpoint_marker`, the clone's application is trimmed to
        the work *after* the last scheduling point — modelling an
        application that checkpoints at its scheduling points.  If the job
        also declares :attr:`checkpoint_bytes`, the trimmed application is
        prefixed with a restart phase that reads the checkpoint back from
        the PFS, charging the restart I/O cost of the preemption (or
        failure) that evicted it.  The original walltime budget is kept
        either way.
        """
        application = self.application
        if resume and self.checkpoint_marker is not None:
            application = _trim_application(self.application, self.checkpoint_marker)
            if self.checkpoint_bytes:
                application = _with_restart_read(application, self.checkpoint_bytes)
        clone = Job(
            new_jid,
            application,
            job_type=self.type,
            submit_time=submit_time,
            num_nodes=self.num_nodes,
            min_nodes=None if self.is_rigid else self.min_nodes,
            max_nodes=None if self.is_rigid else self.max_nodes,
            walltime=self.walltime,
            arguments=self.arguments,
            name=f"{self.name}.r{self.attempt + 1}",
            user=self.user,
            priority=self.priority,
            job_class=self.job_class,
            checkpoint_bytes=self.checkpoint_bytes,
        )
        clone.attempt = self.attempt + 1
        clone.origin_jid = self.origin_jid if self.origin_jid is not None else self.jid
        clone.source_jid = self.jid
        return clone

    # -- snapshot/restore ----------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot the runtime fields (description fields come from the
        scenario spec, or — for requeue clones — from lineage replay).

        ``evolving_wait_event`` is deliberately absent: the executor owns
        that wait and rebuilds the event on resume.  The expression-variable
        cache restores invalid and is lazily rebuilt on first use.
        """
        pending = self.pending_reconfiguration
        return {
            "state": self.state.value,
            "assigned_nodes": [node.index for node in self._assigned_nodes],
            "allocation_generation": self._allocation_generation,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "kill_reason": self.kill_reason,
            "pending_reconfiguration": (
                {
                    "target": [node.index for node in pending.target],
                    "issued_at": pending.issued_at,
                }
                if pending is not None
                else None
            ),
            "evolving_request": self.evolving_request,
            "evolving_denied": self.evolving_denied,
            "scheduling_points_seen": self.scheduling_points_seen,
            "reconfigurations_applied": self.reconfigurations_applied,
            "redistribution_bytes_moved": self.redistribution_bytes_moved,
            "attempt": self.attempt,
            "origin_jid": self.origin_jid,
            "checkpoint_marker": (
                list(self.checkpoint_marker)
                if self.checkpoint_marker is not None
                else None
            ),
        }

    def restore_state(self, state: dict, nodes: Sequence) -> None:
        """Apply captured runtime state; ``nodes`` is the platform's node
        list for resolving allocation indices."""
        self.state = JobState(state["state"])
        self._assigned_nodes = [nodes[i] for i in state["assigned_nodes"]]
        self._allocation_generation = state["allocation_generation"]
        self._variables_cache = None
        self._variables_generation = -1
        self.start_time = state["start_time"]
        self.end_time = state["end_time"]
        self.kill_reason = state["kill_reason"]
        pending = state["pending_reconfiguration"]
        if pending is not None:
            order = ReconfigurationOrder(
                [nodes[i] for i in pending["target"]], pending["issued_at"]
            )
            self.pending_reconfiguration = order
        else:
            self.pending_reconfiguration = None
        self.evolving_request = state["evolving_request"]
        self.evolving_wait_event = None
        self.evolving_denied = state["evolving_denied"]
        self.scheduling_points_seen = state["scheduling_points_seen"]
        self.reconfigurations_applied = state["reconfigurations_applied"]
        self.redistribution_bytes_moved = state["redistribution_bytes_moved"]
        self.attempt = state["attempt"]
        self.origin_jid = state["origin_jid"]
        marker = state["checkpoint_marker"]
        self.checkpoint_marker = tuple(marker) if marker is not None else None

    # -- type predicates -----------------------------------------------------

    @property
    def is_rigid(self) -> bool:
        return self.type is JobType.RIGID

    @property
    def is_adaptive(self) -> bool:
        """True for jobs whose allocation can change after start."""
        return self.type in (JobType.MALLEABLE, JobType.EVOLVING)

    # -- allocation ------------------------------------------------------------

    @property
    def assigned_nodes(self) -> List:
        """The job's current allocation (reassign, never mutate in place)."""
        return self._assigned_nodes

    @assigned_nodes.setter
    def assigned_nodes(self, nodes: List) -> None:
        self._assigned_nodes = nodes
        self._allocation_generation += 1

    @property
    def allocation_generation(self) -> int:
        """Bumped on every allocation change: the key of per-allocation caches."""
        return self._allocation_generation

    # -- expression context ----------------------------------------------------

    def expression_variables(self, **extra: float) -> Dict[str, float]:
        """Bindings available to the application model's expressions.

        The base binding dict is cached per allocation generation (the
        executor asks for it once per task); reconfigurations invalidate
        it through the ``assigned_nodes`` setter.  ``arguments`` are
        treated as immutable after submission.
        """
        base = self._variables_cache
        if base is None or self._variables_generation != self._allocation_generation:
            base = dict(self.arguments)
            base["num_nodes"] = len(self._assigned_nodes) or self.num_nodes
            base["job_id"] = self.jid
            self._variables_cache = base
            self._variables_generation = self._allocation_generation
        if extra:
            return {**base, **extra}
        return dict(base)

    # -- lifecycle --------------------------------------------------------------

    def mark_started(self, nodes: Sequence, now: float) -> None:
        if self.state is not JobState.PENDING:
            raise JobError(f"{self.name}: cannot start from state {self.state}")
        if not nodes:
            raise JobError(f"{self.name}: cannot start with empty allocation")
        if not self.min_nodes <= len(nodes) <= self.max_nodes:
            raise JobError(
                f"{self.name}: allocation of {len(nodes)} outside "
                f"{self.min_nodes}..{self.max_nodes}"
            )
        if self.is_rigid and len(nodes) != self.num_nodes:
            raise JobError(
                f"{self.name}: rigid job needs exactly {self.num_nodes} nodes, "
                f"got {len(nodes)}"
            )
        self.state = JobState.RUNNING
        self.assigned_nodes = list(nodes)
        self.start_time = now

    def mark_completed(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            raise JobError(f"{self.name}: cannot complete from state {self.state}")
        self.state = JobState.COMPLETED
        self.end_time = now

    def mark_killed(self, now: float, reason: str) -> None:
        if self.state not in (JobState.RUNNING, JobState.PENDING):
            raise JobError(f"{self.name}: cannot kill from state {self.state}")
        self.state = JobState.KILLED
        self.end_time = now
        self.kill_reason = reason

    # -- metrics ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.KILLED)

    @property
    def wait_time(self) -> Optional[float]:
        """Seconds between submission and start (None while pending)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def runtime(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def turnaround(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    def bounded_slowdown(self, tau: float = 10.0) -> Optional[float]:
        """Feitelson's bounded slowdown with threshold ``tau`` seconds."""
        if self.end_time is None or self.start_time is None:
            return None
        runtime = self.runtime or 0.0
        return max(
            1.0,
            (self.wait_time + runtime) / max(runtime, tau),
        )

    def __repr__(self) -> str:
        return (
            f"<Job {self.name} {self.type.value} {self.state.value} "
            f"nodes={len(self.assigned_nodes) or self.num_nodes}>"
        )


def _trim_application(application: ApplicationModel, marker: tuple) -> ApplicationModel:
    """The part of ``application`` after checkpoint ``marker``.

    ``marker`` is (phase index, iterations completed, iterations total) as
    recorded by the engine.  The marker phase keeps its remaining
    iterations as a literal count; later phases are untouched.  If nothing
    remains (marker at the very end), a minimal zero-work application is
    returned so the clone completes immediately.
    """
    from repro.application import CpuTask, Phase

    phase_idx, done, total = marker
    phases = []
    marker_phase = application.phases[phase_idx]
    remaining = total - done
    if remaining > 0:
        phases.append(
            Phase(
                marker_phase.tasks,
                iterations=remaining,
                scheduling_point=marker_phase.scheduling_point,
                parallel=marker_phase.parallel,
                name=f"{marker_phase.name}~resumed",
            )
        )
    phases.extend(application.phases[phase_idx + 1 :])
    if not phases:
        phases = [Phase([CpuTask(0)], name="resume-epilogue")]
    return ApplicationModel(
        phases,
        data_per_node=application.data_per_node,
        name=f"{application.name}~resumed",
    )


def _with_restart_read(
    application: ApplicationModel, checkpoint_bytes: float
) -> ApplicationModel:
    """Prefix ``application`` with a PFS read of the checkpoint.

    The read is spread evenly over the allocation (the task's EVEN
    distribution divides by the node count), so the *total* restart I/O
    volume equals ``checkpoint_bytes`` regardless of the resumed size.
    The restart phase is not a scheduling point: a job evicted mid-restart
    has made no new progress, so its next resume replays the same read.
    """
    from repro.application import PfsReadTask, Phase

    restart = Phase(
        [PfsReadTask(checkpoint_bytes, name="restart-read")],
        scheduling_point=False,
        name="restart",
    )
    return ApplicationModel(
        [restart, *application.phases],
        data_per_node=application.data_per_node,
        name=application.name,
    )
