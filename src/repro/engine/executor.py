"""The per-job executor."""

from __future__ import annotations

from typing import Any, Collection, Dict, Generator, List, Optional, Protocol, Sequence

from repro._input import InputError
from repro.application import (
    ApplicationError,
    BbReadTask,
    BbWriteTask,
    CommTask,
    CpuTask,
    DelayTask,
    EvolvingRequest,
    GpuTask,
    PfsReadTask,
    PfsWriteTask,
    Phase,
    Task,
)
from repro.des import Environment, Event, Interrupt
from repro.job import Job
from repro.platform import Node, Platform, Route
from repro.sharing import Activity, FairShareModel, Fanout, SharedResource


class EngineError(InputError):
    """Raised when a job's model cannot run on the given platform."""


class BatchCallbacks(Protocol):
    """What the executor needs from the batch system.

    Methods are synchronous: they are invoked at the current simulation
    instant and may set ``job.pending_reconfiguration`` before returning.
    """

    def on_scheduling_point(self, job: Job) -> None:  # pragma: no cover - protocol
        ...

    def on_evolving_request(self, job: Job, desired_nodes: int) -> None:  # pragma: no cover
        ...

    def commit_reconfiguration(  # pragma: no cover
        self, job: Job, new_nodes: Sequence[Node]
    ) -> None:
        ...

    def place_tasks(self, job: Job, task: Task) -> Optional[List[Node]]:  # pragma: no cover
        """Application-level placement: the subset of the job's allocation
        the task should occupy, or None for the whole allocation."""
        ...


def flow_work(nbytes: float, latency: float, resources: Collection[SharedResource]) -> float:
    """Work of a flow of ``nbytes`` over ``resources``, latency included.

    Route latency is charged by *inflating the work* with an equivalent
    byte count at the route's bottleneck bandwidth — the standard trick to
    keep latency inside a single fluid activity.  For batch workloads
    (latencies ~1 µs, transfers ~GB) the effect is negligible but non-zero,
    matching SimGrid's ``latency + size/bandwidth`` shape.
    """
    work = float(nbytes)
    if latency > 0 and resources:
        work += latency * min([res.capacity for res in resources])
    return work


def transfer(
    env: Environment,
    model: FairShareModel,
    route: Route,
    nbytes: float,
    *,
    payload: Any = None,
) -> Activity:
    """Create (and start) a flow activity along ``route`` (see :func:`flow_work`)."""
    usages = {res: 1.0 for res in route.resources}
    activity = Activity(flow_work(nbytes, route.latency, usages), usages, payload=payload)
    model.execute(activity)
    return activity


class JobExecutor:
    """Executes one job's application model; one instance per job start.

    Parameters
    ----------
    env, platform, model:
        The simulation substrate.
    job:
        Must already be in RUNNING state with its allocation assigned.
    batch:
        Callback sink (the batch system, or a stub in tests).
    """

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        model: FairShareModel,
        job: Job,
        batch: BatchCallbacks,
    ) -> None:
        self.env = env
        self.platform = platform
        self.model = model
        self.job = job
        self.batch = batch
        #: Flight recorder shared with the batch system (None when tracing
        #: is off — every emission site guards on that, and test stubs
        #: without the attribute read as disabled).
        self.tracer = getattr(batch, "tracer", None)
        #: The fan-out the generator is waiting for, if any.
        self._outstanding: Optional[Fanout] = None
        self._current_wait: Optional[Event] = None
        #: The allocation's resource lists as handed to ``execute_fanout``
        #: ("cpu" / "gpu" → one per node), built once per allocation
        #: generation: the model only reads them.
        self._resources: Dict[str, List[SharedResource]] = {}
        self._resources_generation: int = -1
        self._parallel_branches: List = []
        #: (branch event, branch executor) per task of an in-flight parallel
        #: phase, in task order.  Unlike ``_parallel_branches`` (live procs
        #: only, for cancellation) this keeps finished branches too, so a
        #: snapshot can record each branch slot as done or mid-wait.
        self._branch_slots: List = []
        # -- resume cursor ---------------------------------------------------
        # Where the generator currently is, updated at every step so a
        # snapshot can rebuild an equivalent generator by deterministic
        # re-entry (see capture_state / resume_run).
        self._phase_idx: int = 0
        self._iteration: int = 0
        #: ``phase.num_iterations(...)`` is evaluated once per phase with
        #: the then-current allocation, so the evaluated count is state.
        self._iterations_total: Optional[int] = None
        self._task_idx: int = 0
        #: What the generator is suspended on: "acts" | "delay" |
        #: "evolving" | "parallel", or None while running.
        self._wait_kind: Optional[str] = None
        #: For "acts" waits: "task" (inside _execute_task) or "reconfig"
        #: (inside _redistribute).
        self._wait_ctx: str = "task"
        #: Who triggered the in-flight reconfiguration: "sched"
        #: (scheduling point) or "evolving" (blocking/non-blocking request).
        self._reconfig_origin: Optional[str] = None

    # -- top level ---------------------------------------------------------

    def run(self) -> Generator[Event, Any, str]:
        """Process body: returns "completed" or "killed".

        The caller (batch system) interrupts this process to kill the job;
        the executor cancels its in-flight activities before re-raising is
        *not* needed — it swallows the interrupt and reports "killed".
        """
        job = self.job
        try:
            yield from self._drive(0, 0, None, 0, None)
            return "completed"
        except Interrupt as intr:
            self._cancel_outstanding()
            job.kill_reason = str(intr.cause) if intr.cause is not None else "killed"
            return "killed"

    def _drive(
        self,
        start_phase: int,
        start_iter: int,
        start_total: Optional[int],
        task_start: int,
        resume_point: Optional[str],
    ) -> Generator[Event, Any, None]:
        """Run the application from a given position to completion.

        A cold run enters at ``(0, 0, None, 0, None)``; a snapshot resume
        enters at the captured cursor with ``resume_point`` naming what is
        already done at that position: ``"mid-iteration"`` (tasks before
        ``task_start`` are done), ``"post-iteration"`` (the whole iteration
        body is done, its scheduling point is not), or
        ``"post-scheduling-point"`` (both are done).  ``start_total``
        carries the captured ``num_iterations`` evaluation for the start
        phase — it must not be re-evaluated, the allocation may have
        changed since the phase began.
        """
        job = self.job
        phases = job.application.phases
        try:
            for p_idx in range(start_phase, len(phases)):
                phase = phases[p_idx]
                self._phase_idx = p_idx
                if p_idx == start_phase and start_total is not None:
                    iterations = start_total
                else:
                    iterations = phase.num_iterations(job.expression_variables())
                self._iterations_total = iterations
                first_iter = start_iter if p_idx == start_phase else 0
                for iteration in range(first_iter, iterations):
                    self._iteration = iteration
                    point = (
                        resume_point
                        if p_idx == start_phase and iteration == start_iter
                        else None
                    )
                    if point == "post-scheduling-point":
                        continue
                    if point == "mid-iteration":
                        for t_idx in range(task_start, len(phase.tasks)):
                            self._task_idx = t_idx
                            yield from self._run_task(phase.tasks[t_idx], iteration)
                    elif point != "post-iteration":
                        yield from self._run_iteration(phase, iteration)
                    if phase.scheduling_point:
                        # Scheduling points are the checkpoint locations:
                        # record progress for checkpoint/restart requeues.
                        job.checkpoint_marker = (p_idx, iteration + 1, iterations)
                        yield from self._scheduling_point()
        except ApplicationError as exc:
            # A magnitude that does not evaluate under this allocation, or
            # not to an amount: say whose it is.
            raise ApplicationError(f"Job {job.name}, phase {phase.name!r}: {exc}") from None

    # -- phases and tasks -------------------------------------------------------

    def _run_iteration(
        self, phase: Phase, iteration: int
    ) -> Generator[Event, Any, None]:
        if phase.parallel:
            yield from self._run_parallel_tasks(phase, iteration)
            return
        for task_idx, task in enumerate(phase.tasks):
            self._task_idx = task_idx
            yield from self._run_task(task, iteration)

    def _run_parallel_tasks(
        self, phase: Phase, iteration: int
    ) -> Generator[Event, Any, None]:
        """Run all of a parallel phase's tasks concurrently.

        Each task executes in its own branch process with its own activity
        tracking (a fresh executor sharing this one's substrate), so a kill
        of the main process can cancel every branch cleanly.
        """
        branches = []
        slots = []
        for task_idx, task in enumerate(phase.tasks):
            branch_exec = JobExecutor(
                self.env, self.platform, self.model, self.job, self.batch
            )
            branch_exec._phase_idx = self._phase_idx
            branch_exec._iteration = iteration
            branch_exec._iterations_total = self._iterations_total
            branch_exec._task_idx = task_idx
            proc = self.env.process(
                self._branch(branch_exec, task, iteration),
                name=f"{self.job.name}/{phase.name}/{task.name}",
            )
            branches.append(proc)
            slots.append((proc, branch_exec))
        self._parallel_branches = branches
        self._branch_slots = slots
        condition = self.env.all_of(branches)
        self._current_wait = condition
        self._wait_kind = "parallel"
        yield condition
        self._wait_kind = None
        self._current_wait = None
        self._parallel_branches = []
        self._branch_slots = []

    @staticmethod
    def _branch(executor: "JobExecutor", task: Task, iteration: int):
        try:
            yield from executor._run_task(task, iteration)
        except Interrupt:
            executor._cancel_outstanding()

    def _run_task(self, task: Task, iteration: int) -> Generator[Event, Any, None]:
        tracer = self.tracer
        if tracer is None:
            yield from self._execute_task(task, iteration)
            return
        # Traced: record one span per node the task occupied.  The node
        # set is sampled at task start; compute/IO/comm tasks never change
        # it mid-flight (an EvolvingRequest task that reconfigures is
        # attributed to the allocation it was issued from).
        start = self.env.now
        node_indices = [node.index for node in self._task_nodes(task)]
        yield from self._execute_task(task, iteration)
        end = self.env.now
        if end > start:
            for index in node_indices:
                tracer.span(
                    "task.run",
                    f"node:{index}",
                    task.name,
                    start,
                    end,
                    jid=self.job.jid,
                    task=type(task).__name__,
                    iteration=iteration,
                )

    def _task_nodes(self, task: Task) -> List[Node]:
        """The nodes a task occupies: its placement, or the full allocation.

        Application-level (two-level) scheduling: the batch system asks the
        algorithm's :meth:`~repro.scheduler.base.Algorithm.place_tasks` hook
        which subset of the allocation the task should run on.  The hook
        must be pure — this is re-evaluated wherever the task's node set is
        needed (trace spans, resume tails) and must always agree.  Delay
        and evolving-request tasks occupy no resources, so placement never
        applies to them; test stubs without the callback get the classic
        single-level behaviour.
        """
        if isinstance(task, (DelayTask, EvolvingRequest)):
            return self.job.assigned_nodes
        place = getattr(self.batch, "place_tasks", None)
        if place is None:
            return self.job.assigned_nodes
        chosen = place(self.job, task)
        if chosen is None:
            return self.job.assigned_nodes
        return chosen

    def _execute_task(self, task: Task, iteration: int) -> Generator[Event, Any, None]:
        nodes = self._task_nodes(task)
        n = len(nodes)
        variables = self.job.expression_variables(
            iteration=iteration,
            gpus_per_node=nodes[0].gpus if nodes else 0,
        )

        if isinstance(task, (CpuTask, GpuTask)):
            flops = task.flops_per_node(variables, n)
            if flops <= 0:
                return
            resources = self._node_resources(
                nodes, "cpu" if isinstance(task, CpuTask) else "gpu", task
            )
            yield from self._wait_started(
                self.model.execute_fanout(flops, resources, (self.job.jid, task.name))
            )
            return

        if isinstance(task, CommTask):
            nbytes = task.message_size(variables)
            if nbytes <= 0 or n <= 1:
                return
            routes = []
            payloads = []
            for src_rank, dst_rank in task.flows(n):
                route = self.platform.route(nodes[src_rank].index, nodes[dst_rank].index)
                if not route.resources and route.latency == 0:
                    continue  # same-node "transfer" is free
                routes.append(route)
                payloads.append((self.job.jid, task.name, src_rank, dst_rank))
            yield from self._wait_started(self._start_flows(routes, nbytes, payloads))
            return

        if isinstance(task, PfsReadTask):
            yield from self._run_pfs_io(task, variables, read=True)
            return

        if isinstance(task, PfsWriteTask):
            yield from self._run_pfs_io(task, variables, read=False)
            return

        if isinstance(task, BbReadTask):
            yield from self._run_bb_io(task, variables, read=True)
            return

        if isinstance(task, BbWriteTask):
            yield from self._run_bb_io(task, variables, read=False)
            return

        if isinstance(task, DelayTask):
            duration = task.duration(variables)
            if duration > 0:
                timer = self.env.timeout(duration)
                self._current_wait = timer
                self._wait_kind = "delay"
                yield timer
                self._wait_kind = None
                self._current_wait = None
            return

        if isinstance(task, EvolvingRequest):
            desired = task.desired_nodes(variables)
            if desired != n:
                self.job.evolving_request = desired
                self.job.evolving_denied = False
                self.batch.on_evolving_request(self.job, desired)
                if (
                    task.blocking
                    and self.job.pending_reconfiguration is None
                    and not self.job.evolving_denied
                ):
                    # Blocking semantics: suspend until the scheduler grants
                    # (issues an order) or explicitly denies the request.
                    wait = Event(self.env)
                    self.job.evolving_wait_event = wait
                    self._current_wait = wait
                    self._wait_kind = "evolving"
                    yield wait
                    self._wait_kind = None
                    self._current_wait = None
                    self.job.evolving_wait_event = None
                # An evolving request is itself a scheduling point: apply
                # whatever the scheduler granted right away.
                self._reconfig_origin = "evolving"
                yield from self._apply_pending_reconfiguration()
                self._reconfig_origin = None
                self.job.evolving_request = None
                self.job.evolving_denied = False
            return

        raise EngineError(f"Unknown task type {type(task).__name__}")

    def _node_resources(
        self, nodes: List[Node], kind: str, task: Task
    ) -> List[SharedResource]:
        """The ``kind`` ("cpu" / "gpu") resource of every node, in order.

        For the whole allocation — every task of a job without a placement
        hook — the list is built once per allocation generation and shared
        between the fan-outs that use it; a placed subset gets its own.
        """
        job = self.job
        whole = nodes is job.assigned_nodes
        if whole:
            if self._resources_generation != job.allocation_generation:
                self._resources_generation = job.allocation_generation
                self._resources = {}
            resources = self._resources.get(kind)
            if resources is not None:
                return resources
        resources = [getattr(node, kind) for node in nodes]
        if None in resources:  # every node has a CPU
            raise EngineError(
                f"Job {job.name}: task {task.name!r} needs GPUs, "
                f"but node {nodes[resources.index(None)].name} has none"
            )
        if whole:
            self._resources[kind] = resources
        return resources

    def _start_flows(
        self, routes: List[Route], nbytes: float, payloads: List[tuple]
    ) -> Fanout:
        """Start one flow of ``nbytes`` along each of ``routes``.

        Flows that are one activity but for their resources — equal hop
        count, equal latency-inflated work, as in any exchange on a star —
        are handed to the model in one call, which makes them one cohort
        row when each hop is private to its flow or common to all of them
        (a gather's root, the file system's side of I/O); routes of
        unequal length or bottleneck (fat tree, torus) start one
        :func:`transfer` each.
        """
        hops = len(routes[0].resources) if routes else 0
        if hops and all([len(route.resources) == hops for route in routes]):
            works = [flow_work(nbytes, route.latency, route.resources) for route in routes]
            if works.count(works[0]) == len(works):
                return self.model.execute_fanout(
                    works[0],
                    [res for route in routes for res in route.resources],
                    payloads,
                    hops,
                )
        return Fanout(
            self.env,
            [
                transfer(self.env, self.model, route, nbytes, payload=payload)
                for route, payload in zip(routes, payloads)
            ],
        )

    def _run_pfs_io(self, task, variables, *, read: bool) -> Generator[Event, Any, None]:
        platform = self.platform
        pfs = platform.pfs
        if pfs is None:
            raise EngineError(
                f"Job {self.job.name}: task {task.name!r} needs a PFS, "
                f"but platform {platform.name!r} has none"
            )
        nodes = self._task_nodes(task)
        nbytes = task.bytes_per_node(variables, len(nodes))
        if nbytes <= 0:
            return
        # A flow to or from the file system also draws on its service
        # capacity, behind its link: one more hop, the same for every node.
        service = (pfs.read if read else pfs.write,)
        route_of = platform.route_from_pfs if read else platform.route_to_pfs
        routes = []
        for node in nodes:
            route = route_of(node.index)
            routes.append(Route(route.resources + service, route.latency))
        jid = self.job.jid
        yield from self._wait_started(
            self._start_flows(
                routes, nbytes, [(jid, task.name, node.index) for node in nodes]
            )
        )

    def _run_bb_io(self, task, variables, *, read: bool) -> Generator[Event, Any, None]:
        nodes = self._task_nodes(task)
        nbytes = task.bytes_per_node(variables, len(nodes))
        if nbytes <= 0:
            return
        for node in nodes:
            if node.bb is None:
                raise EngineError(
                    f"Job {self.job.name}: task {task.name!r} needs burst "
                    f"buffers, but node {node.name} has none"
                )
        jid = self.job.jid
        yield from self._wait_started(
            self.model.execute_fanout(
                nbytes,
                [node.bb.read if read else node.bb.write for node in nodes],
                [(jid, task.name, node.index) for node in nodes],
            )
        )
        if not read and getattr(task, "charge", False):
            for node in nodes:
                node.bb.charge(nbytes)

    # -- scheduling points and reconfiguration ------------------------------

    def _scheduling_point(self) -> Generator[Event, Any, None]:
        self.job.scheduling_points_seen += 1
        self.batch.on_scheduling_point(self.job)
        self._reconfig_origin = "sched"
        yield from self._apply_pending_reconfiguration()
        self._reconfig_origin = None

    def _apply_pending_reconfiguration(self) -> Generator[Event, Any, None]:
        order = self.job.pending_reconfiguration
        if order is None:
            return
        old_nodes = list(self.job.assigned_nodes)
        new_nodes = list(order.target)
        if {n.index for n in old_nodes} == {n.index for n in new_nodes}:
            self.job.pending_reconfiguration = None
            return  # no-op order

        # The order stays set until the commit: the scheduler-context guard
        # ("job already has a pending order") must hold through the whole
        # redistribution, or a second order issued mid-flight would be
        # computed from a stale allocation.  It also lets a kill during
        # redistribution release the reserved target nodes.
        self._wait_ctx = "reconfig"
        yield from self._redistribute(old_nodes, new_nodes)
        self._wait_ctx = "task"

        self.batch.commit_reconfiguration(self.job, new_nodes)
        self.job.pending_reconfiguration = None
        self.job.reconfigurations_applied += 1

    def _redistribute(
        self, old_nodes: List[Node], new_nodes: List[Node]
    ) -> Generator[Event, Any, None]:
        """Simulate data movement from the old to the new allocation.

        Cost model: the application holds ``data_per_node`` bytes on each of
        the ``|A|`` old nodes (total ``D``).  After reconfiguration each of
        the ``|B|`` new nodes must hold ``D / |B|``.  Every *leaving* node
        ships its full ``data_per_node``; every *joining* node receives its
        new share ``D / |B|``.  Transfers run as parallel network flows
        paired round-robin with the surviving nodes.
        """
        job = self.job
        per_node = job.application.redistribution_bytes_per_node(
            job.expression_variables()
        )
        if per_node <= 0:
            return
        old_set = {n.index for n in old_nodes}
        new_set = {n.index for n in new_nodes}
        leaving = [n for n in old_nodes if n.index not in new_set]
        joining = [n for n in new_nodes if n.index not in old_set]
        staying = [n for n in old_nodes if n.index in new_set]

        total = per_node * len(old_nodes)
        new_share = total / len(new_nodes)

        activities = []
        moved = 0.0
        # Leaving nodes push their state to a surviving or joining node.
        sinks = staying or joining
        for k, node in enumerate(leaving):
            dst = sinks[k % len(sinks)]
            route = self.platform.route(node.index, dst.index)
            if route.resources or route.latency > 0:
                activities.append(
                    transfer(self.env, self.model, route, per_node,
                             payload=(job.jid, "redistribute-out"))
                )
            moved += per_node
        # Joining nodes pull their share from surviving (or leaving) nodes.
        sources = staying or leaving
        for k, node in enumerate(joining):
            src = sources[k % len(sources)]
            route = self.platform.route(src.index, node.index)
            if route.resources or route.latency > 0:
                activities.append(
                    transfer(self.env, self.model, route, new_share,
                             payload=(job.jid, "redistribute-in"))
                )
            moved += new_share

        job.redistribution_bytes_moved += moved
        start = self.env.now
        yield from self._wait_started(Fanout(self.env, activities))
        tracer = self.tracer
        if tracer is not None and self.env.now > start:
            tracer.span(
                "reconf.redistribute",
                "batch",
                job.name,
                start,
                self.env.now,
                jid=job.jid,
                bytes=moved,
                leaving=len(leaving),
                joining=len(joining),
            )

    # -- waiting helpers ----------------------------------------------------

    def _wait_started(self, fanout: Fanout) -> Generator[Event, Any, None]:
        """Wait for an already-started fan-out; cancellable via interrupt.

        An empty one is done already: the process carries straight on.
        """
        self._outstanding = fanout
        done = fanout.done
        self._current_wait = done
        self._wait_kind = "acts"
        # No try/finally: on an interrupt the state must survive so that
        # run()'s handler can cancel the in-flight activities.
        yield done
        self._wait_kind = None
        self._current_wait = None
        self._outstanding = None

    def _cancel_outstanding(self) -> None:
        """Abort the in-flight fan-out (and parallel branches) after an
        interrupt."""
        if self._outstanding is not None:
            self.model.cancel(self._outstanding)
        for proc in self._parallel_branches:
            if proc.is_alive:
                proc.interrupt("parent-killed")
        if self._current_wait is not None:
            # The condition will fail when the cancelled activities fail;
            # nobody waits for it anymore, so mark the failure as handled.
            self._current_wait.defuse()
        self._outstanding = None
        self._parallel_branches = []
        self._branch_slots = []
        self._current_wait = None
        self._wait_kind = None

    # -- snapshot / resume --------------------------------------------------
    #
    # A suspended executor generator cannot be serialized, but its position
    # is fully determined by the resume cursor maintained above plus the
    # wait it is suspended on.  capture_state() records both; resume_run()
    # rebuilds an equivalent generator that re-creates the wait, yields it,
    # runs the current task's tail, and hands the rest of the application
    # to _drive() — producing the exact event sequence the original
    # generator would have produced.

    def capture_state(self, registry, prefix: str) -> dict:
        """Record the resume cursor and the current wait as JSON-safe state.

        ``registry`` is the snapshot's sid registry: running activities and
        intact cohorts were already claimed by the fair-share model's
        capture (``act.<seq>`` / ``fan.<seq>``); a pending delay timeout is
        claimed here under ``<prefix>.delay``.
        Must only be called at a quiet boundary while the executor's
        process is suspended on a wait.
        """
        if self._wait_kind is None:
            raise RuntimeError(
                f"executor for job {self.job.jid} is not suspended on a wait"
            )
        state = {
            "phase_idx": self._phase_idx,
            "iteration": self._iteration,
            "iterations_total": self._iterations_total,
            "task_idx": self._task_idx,
            "wait_kind": self._wait_kind,
            "wait_ctx": self._wait_ctx,
            "reconfig_origin": self._reconfig_origin,
        }
        if self._wait_kind == "acts":
            state["outstanding"] = self._capture_outstanding(registry)
        elif self._wait_kind == "delay":
            sid = f"{prefix}.delay"
            registry.claim(sid, self._current_wait)
            state["delay"] = {
                "sid": sid,
                "delay": self._current_wait.delay,
            }
        elif self._wait_kind == "parallel":
            branches = []
            for k, (event, branch_exec) in enumerate(self._branch_slots):
                alive = event.callbacks is not None
                branches.append(
                    {
                        "alive": alive,
                        "state": (
                            branch_exec.capture_state(registry, f"{prefix}.b{k}")
                            if alive
                            else None
                        ),
                    }
                )
            state["branches"] = branches
        # "evolving" needs nothing beyond the cursor: the wait event is
        # pending (not queued) and is recreated fresh on resume.
        return state

    def _capture_outstanding(self, registry) -> Any:
        """The fan-out being waited for: the sid of an intact cohort (the
        model captured it whole, memberless), else one record per member."""
        fanout = self._outstanding
        cohort = registry.sid_of(fanout)
        if cohort is not None:
            return {"fanout": cohort}
        outstanding = []
        for act in fanout.activities:
            if act._model is not None:
                outstanding.append({"ref": registry.sid_of(act)})
            else:
                # Already finished: its done event is processed, but the
                # AllOf still references it.  Record enough to rebuild a
                # behaviorally-equivalent placeholder.
                outstanding.append(
                    {
                        "done": {
                            "work": act.work,
                            "payload": (
                                list(act.payload)
                                if isinstance(act.payload, tuple)
                                else act.payload
                            ),
                            "seq": act._seq,
                            "started_at": act.started_at,
                            "finished_at": act.finished_at,
                        }
                    }
                )
        return outstanding

    def resume_run(self, cursor: dict, resolved: dict) -> Generator[Event, Any, str]:
        """Replacement for :meth:`run` when resuming from a snapshot.

        ``resolved`` carries the live objects the restore layer rebuilt for
        the captured wait (a fan-out, a raw timeout, or branch events).
        """
        job = self.job
        try:
            yield from self._resume_wait(cursor, resolved)
            yield from self._drive(
                cursor["phase_idx"],
                cursor["iteration"],
                cursor["iterations_total"],
                cursor["task_idx"] + 1,
                self._resume_point(cursor),
            )
            return "completed"
        except Interrupt as intr:
            self._cancel_outstanding()
            job.kill_reason = str(intr.cause) if intr.cause is not None else "killed"
            return "killed"

    def resume_branch(self, cursor: dict, resolved: dict) -> Generator[Event, Any, None]:
        """Replacement for :meth:`_branch` when resuming a parallel branch."""
        try:
            yield from self._resume_wait(cursor, resolved)
        except Interrupt:
            self._cancel_outstanding()

    @staticmethod
    def _resume_point(cursor: dict) -> str:
        """Where _drive() should pick up once the captured wait completes."""
        if cursor["wait_kind"] == "parallel":
            # The parallel wait IS the iteration body; its scheduling point
            # has not run yet.
            return "post-iteration"
        if cursor["wait_ctx"] == "reconfig" and cursor["reconfig_origin"] == "sched":
            # Suspended inside the scheduling point's redistribution: the
            # iteration and the point's bookkeeping are both done.
            return "post-scheduling-point"
        return "mid-iteration"

    def _resume_wait(self, cursor: dict, resolved: dict) -> Generator[Event, Any, None]:
        """Rebuild the captured wait, complete it, and run the task tail."""
        job = self.job
        kind = cursor["wait_kind"]
        self._phase_idx = cursor["phase_idx"]
        self._iteration = cursor["iteration"]
        self._iterations_total = cursor["iterations_total"]
        self._task_idx = cursor["task_idx"]
        self._wait_ctx = cursor["wait_ctx"]
        self._reconfig_origin = cursor["reconfig_origin"]
        phase = job.application.phases[self._phase_idx]
        iteration = self._iteration

        if kind == "acts":
            yield from self._wait_started(resolved["fanout"])
            if cursor["wait_ctx"] == "reconfig":
                yield from self._finish_reconfiguration(cursor)
            else:
                yield from self._task_tail(phase.tasks[self._task_idx], iteration)
            return

        if kind == "delay":
            timer = resolved["timer"]
            self._current_wait = timer
            self._wait_kind = "delay"
            yield timer
            self._wait_kind = None
            self._current_wait = None
            return  # DelayTask has no tail

        if kind == "evolving":
            wait = Event(self.env)
            job.evolving_wait_event = wait
            self._current_wait = wait
            self._wait_kind = "evolving"
            yield wait
            self._wait_kind = None
            self._current_wait = None
            job.evolving_wait_event = None
            self._reconfig_origin = "evolving"
            yield from self._apply_pending_reconfiguration()
            self._reconfig_origin = None
            job.evolving_request = None
            job.evolving_denied = False
            return

        if kind == "parallel":
            self._parallel_branches = resolved["branch_procs"]
            self._branch_slots = resolved["branch_slots"]
            condition = self.env.all_of(resolved["branch_events"])
            self._current_wait = condition
            self._wait_kind = "parallel"
            yield condition
            self._wait_kind = None
            self._current_wait = None
            self._parallel_branches = []
            self._branch_slots = []
            return

        raise RuntimeError(f"unknown wait kind {kind!r} in snapshot cursor")

    def _finish_reconfiguration(self, cursor: dict) -> Generator[Event, Any, None]:
        """Tail of _apply_pending_reconfiguration after the redistribution
        wait: commit the still-pending order, then (for evolving-origin
        reconfigurations) clear the request like _execute_task does."""
        job = self.job
        self._wait_ctx = "task"
        order = job.pending_reconfiguration
        new_nodes = list(order.target)
        self.batch.commit_reconfiguration(job, new_nodes)
        job.pending_reconfiguration = None
        job.reconfigurations_applied += 1
        if cursor["reconfig_origin"] == "evolving":
            self._reconfig_origin = None
            job.evolving_request = None
            job.evolving_denied = False
        return
        yield  # pragma: no cover - makes this a generator for uniformity

    def _task_tail(self, task: Task, iteration: int) -> Generator[Event, Any, None]:
        """Post-wait remainder of _execute_task for the captured task.

        Only burst-buffer writes have one: the capacity charge after the
        transfer completes.  The byte count is recomputed from the same
        variables the cold run used — the allocation cannot change
        mid-task, so the evaluation is identical.
        """
        if isinstance(task, BbWriteTask) and getattr(task, "charge", False):
            nodes = self._task_nodes(task)
            variables = self.job.expression_variables(
                iteration=iteration,
                gpus_per_node=nodes[0].gpus if nodes else 0,
            )
            nbytes = task.bytes_per_node(variables, len(nodes))
            if nbytes > 0:
                for node in nodes:
                    node.bb.charge(nbytes)
        return
        yield  # pragma: no cover - makes this a generator for uniformity
