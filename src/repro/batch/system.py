"""The batch system and the Simulation façade."""

from __future__ import annotations

from copy import deepcopy
from math import inf
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro._input import FLAG, GE0, GT0, INTEGER, LIST, NUMBER, OBJECT, REQUIRED, TEXT
from repro._input import InputError, read
from repro.des import Environment, Event, Process, SimulationError
from repro.engine import JobExecutor
from repro.failures import Failure, FailureError, generate_failures
from repro.job import Job, JobError, JobState, ReconfigurationOrder
from repro.monitoring import Monitor
from repro.platform import Node, Platform, platform_from_dict
from repro.scheduler import Algorithm, Invocation, InvocationType, SchedulerContext, get_algorithm
from repro.sharing import FairShareModel


class BatchError(Exception):
    """Raised for invalid simulation setups or stuck workloads."""


class BatchSystem:
    """Owns the queue, the running set, and all scheduler interactions."""

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        jobs: Sequence[Job],
        algorithm: Algorithm,
        *,
        invocation_interval: Optional[float] = None,
        failures: Optional[Sequence[Failure]] = None,
        requeue_on_failure: bool = False,
        max_requeues: int = 3,
        checkpoint_restart: bool = False,
        start_processes: bool = True,
        reference: bool = False,
    ) -> None:
        if not jobs:
            raise BatchError("No jobs to simulate")
        jids = [job.jid for job in jobs]
        if len(set(jids)) != len(jids):
            raise BatchError("Duplicate job ids in workload")
        for job in jobs:
            if job.min_nodes > platform.num_nodes:
                raise JobError(
                    f"{job.name} needs at least {job.min_nodes} nodes, "
                    f"platform has {platform.num_nodes}"
                )
        if invocation_interval is not None and invocation_interval <= 0:
            raise BatchError("invocation_interval must be > 0")

        self.env = env
        self.platform = platform
        self.algorithm = algorithm
        self.model = FairShareModel(env, reference=reference)
        self.monitor = Monitor(env, platform.num_nodes)
        # Meter energy when the platform declares node draw (no-op and
        # byte-identical output otherwise).
        self.monitor.attach_power(platform)
        #: True when the algorithm overrides the two-level placement hook;
        #: computed once so the per-task fast path is one attribute read.
        self._has_placement = (
            type(algorithm).place_tasks is not Algorithm.place_tasks
        )
        self.invocation_interval = invocation_interval
        #: Resubmit jobs killed by node failures.
        self.requeue_on_failure = requeue_on_failure
        self.max_requeues = max_requeues
        #: Requeued jobs resume from their last scheduling point instead of
        #: restarting from scratch (applications checkpoint at scheduling
        #: points — the instants where their state is consistent).
        self.checkpoint_restart = checkpoint_restart

        self.jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.jid))
        #: Pending jobs in submission order.
        self.queue: List[Job] = []
        #: Running jobs in start order.
        self.running: List[Job] = []

        self._procs: Dict[int, Process] = {}
        self._done_events: Dict[int, Event] = {}
        #: Per-job executors of running jobs (snapshot capture walks these).
        self._executors: Dict[int, JobExecutor] = {}
        #: Pending submit timeouts by jid (popped when the submit fires).
        self._submit_timers: Dict[int, Event] = {}
        #: Watchdog walltime timers by jid (popped when the watchdog ends).
        self._watchdog_timers: Dict[int, Event] = {}
        #: Live watchdog processes by jid.
        self._watchdog_procs: Dict[int, Process] = {}
        #: The periodic scheduler's pending timer and process (if enabled).
        self._periodic_timer: Optional[Event] = None
        self._periodic_proc: Optional[Process] = None
        #: Failure-injector bookkeeping by injector index: which wait the
        #: injector is suspended on (0 = pre-failure, 1 = overlap extension,
        #: 2 = downtime before repair), its pending timer, and its process.
        self._failure_stage: Dict[int, int] = {}
        self._failure_timers: Dict[int, Event] = {}
        self._failure_procs: Dict[int, Process] = {}
        #: Jobs with an unsatisfied blocking evolving request.  A dict used
        #: as an insertion-ordered set: iteration order must never depend
        #: on hash seeds or id() values, or snapshot-resumed runs diverge.
        self._waiting_evolving: Dict[Job, None] = {}
        #: Jobs with a kill interrupt queued but not yet delivered.
        self._kill_pending: set[int] = set()
        self._finished_count = 0
        #: Fires when every job has finished; Simulation.run waits on it.
        self.all_done: Event = env.event()
        #: Total scheduler invocations (diagnostics / E5).
        self.invocations = 0
        #: Optional flight recorder (attached by ``Simulation.run(trace=...)``).
        #: Every emission site guards with ``is not None`` so the disabled
        #: path costs one attribute check.
        self.tracer = None
        #: Decision outcomes of the scheduler invocation currently in
        #: flight (tracing only; None outside a traced invocation).
        self._decision_log: Optional[List[str]] = None

        self.failures: List[Failure] = list(failures or ())
        for failure in self.failures:
            if not 0 <= failure.node_index < platform.num_nodes:
                raise FailureError(
                    f"Failure targets node {failure.node_index}, platform "
                    f"has {platform.num_nodes}"
                )
        if not start_processes:
            return  # snapshot restore: processes are rebuilt by re-entry
        for job in self.jobs:
            env.process(self._submitter(job), name=f"submit-{job.name}")
        if invocation_interval is not None:
            self._periodic_proc = env.process(
                self._periodic(), name="periodic-scheduler"
            )
        for idx, failure in enumerate(self.failures):
            self._failure_procs[idx] = env.process(
                self._failure_injector(idx, failure),
                name=f"failure-n{failure.node_index}",
            )

    # -- processes ----------------------------------------------------------

    def _submitter(self, job: Job):
        delay = job.submit_time - self.env.now
        if delay > 0:
            timer = self.env.timeout(delay)
            self._submit_timers[job.jid] = timer
            yield from self._submit_after(job, timer)
            return
        self._submit_now(job)
        return
        yield  # pragma: no cover - generator marker

    def _submit_after(self, job: Job, timer: Event):
        """Submitter tail: also the resume generator for a submitter that a
        snapshot caught waiting on its submit timeout."""
        yield timer
        self._submit_timers.pop(job.jid, None)
        self._submit_now(job)

    def _submit_now(self, job: Job) -> None:
        self.queue.append(job)
        self.monitor.on_submit(job)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "job.submit",
                "batch",
                job.name,
                self.env.now,
                jid=job.jid,
                user=job.user,
                type=job.type.value,
                nodes=job.num_nodes,
                queued=len(self.queue),
            )
        self._invoke(InvocationType.JOB_SUBMIT, job)

    def _periodic(self):
        if self._finished_count >= len(self.jobs):
            return
        timer = self.env.timeout(self.invocation_interval)
        self._periodic_timer = timer
        yield from self._periodic_from(timer)

    def _periodic_from(self, timer: Event):
        """Periodic-scheduler loop from a pending timer: also the resume
        generator when a snapshot caught the loop mid-wait."""
        while True:
            yield timer
            if self._finished_count >= len(self.jobs):
                return
            self._invoke(InvocationType.PERIODIC)
            if self._finished_count >= len(self.jobs):
                return
            timer = self.env.timeout(self.invocation_interval)
            self._periodic_timer = timer

    def _failure_injector(self, idx: int, failure: Failure):
        if failure.time > 0:
            timer = self.env.timeout(failure.time)
            self._failure_stage[idx] = 0
            self._failure_timers[idx] = timer
            yield from self._failure_armed(idx, failure, timer)
            return
        yield from self._failure_body(idx, failure)

    def _failure_armed(self, idx: int, failure: Failure, timer: Event):
        """Stage 0: waiting for the failure instant."""
        yield timer
        yield from self._failure_body(idx, failure)

    def _failure_body(self, idx: int, failure: Failure):
        node = self.platform.nodes[failure.node_index]
        if node.failed:
            # Already down (overlapping trace entries): extend implicitly.
            timer = self.env.timeout(failure.downtime)
            self._failure_stage[idx] = 1
            self._failure_timers[idx] = timer
            yield from self._failure_extend(idx, timer)
            return
        timer = self._fail_node(idx, failure)
        yield from self._failure_downtime(idx, failure, timer)

    def _failure_extend(self, idx: int, timer: Event):
        """Stage 1: riding out an overlapping downtime, nothing to do after."""
        yield timer
        self._failure_done(idx)

    def _failure_downtime(self, idx: int, failure: Failure, timer: Event):
        """Stage 2: the node is down; repair it when the downtime elapses."""
        yield timer
        self._repair_node(idx, failure)

    def _fail_node(self, idx: int, failure: Failure) -> Event:
        """Take the node down and arm the downtime timer (stage 2)."""
        node = self.platform.nodes[failure.node_index]
        node.fail()
        self.monitor.on_node_failure(node.index)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "node.fail", f"node:{node.index}", node.name, self.env.now,
                node=node.index,
            )
        victim = node.assigned_job
        if isinstance(victim, Job) and victim.state is JobState.RUNNING:
            self.kill_job(victim, reason="node_failure")
        self._invoke(InvocationType.NODE_FAILURE)
        timer = self.env.timeout(failure.downtime)
        self._failure_stage[idx] = 2
        self._failure_timers[idx] = timer
        return timer

    def _repair_node(self, idx: int, failure: Failure) -> None:
        node = self.platform.nodes[failure.node_index]
        node.repair()
        self.monitor.on_node_repair(node.index)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "node.repair", f"node:{node.index}", node.name, self.env.now,
                node=node.index,
            )
        self._failure_done(idx)
        self._invoke(InvocationType.NODE_REPAIR)

    def _failure_done(self, idx: int) -> None:
        self._failure_stage.pop(idx, None)
        self._failure_timers.pop(idx, None)
        self._failure_procs.pop(idx, None)

    def _runner(self, job: Job, executor: JobExecutor):
        outcome = yield from executor.run()
        self._finish_job(job, outcome)

    def _runner_resumed(self, job: Job, executor: JobExecutor, cursor, resolved):
        """Runner body when the executor is rebuilt from a snapshot."""
        outcome = yield from executor.resume_run(cursor, resolved)
        self._finish_job(job, outcome)

    def _watchdog(self, job: Job, proc: Process, done: Event):
        timer = self.env.timeout(job.walltime)
        self._watchdog_timers[job.jid] = timer
        yield from self._watchdog_wait(job, proc, done, timer)

    def _watchdog_wait(self, job: Job, proc: Process, done: Event, timer: Event):
        """Watchdog wait: also the resume generator after a snapshot."""
        yield timer | done
        self._watchdog_timers.pop(job.jid, None)
        self._watchdog_procs.pop(job.jid, None)
        if not done.triggered and proc.is_alive:
            proc.interrupt("walltime")
        else:
            # The job finished first: withdraw the timer so the stale
            # timeout neither drags a run-to-exhaustion ``env.now`` to
            # the walltime expiry nor counts as a processed event.
            timer.cancel()

    # -- scheduler invocation ----------------------------------------------------

    def _invoke(self, type: InvocationType, job: Optional[Job] = None) -> None:
        self.invocations += 1
        invocation = Invocation(type, self.env.now, job)
        tracer = self.tracer
        if tracer is None:
            self.algorithm.schedule(SchedulerContext(self), invocation)
            return
        # Traced invocation: collect decision outcomes (starts, orders,
        # kills, denials) issued while the algorithm runs, then record the
        # invocation with its trigger and everything it decided.
        previous = self._decision_log
        decisions: List[str] = []
        self._decision_log = decisions
        try:
            self.algorithm.schedule(SchedulerContext(self), invocation)
        finally:
            self._decision_log = previous
            tracer.instant(
                "sched.invoke",
                "scheduler",
                type.value,
                self.env.now,
                trigger=type.value,
                jid=job.jid if job is not None else None,
                queued=len(self.queue),
                running=len(self.running),
                decisions=decisions,
            )

    def _log_decision(self, text: str) -> None:
        """Append a decision outcome to the in-flight traced invocation."""
        if self._decision_log is not None:
            self._decision_log.append(text)

    # -- decision handlers (called by SchedulerContext after validation) -----

    def start_job(self, job: Job, nodes: Sequence[Node]) -> None:
        for node in nodes:
            node.allocate(job)
        self.queue.remove(job)
        job.mark_started(nodes, self.env.now)
        self.running.append(job)
        self.monitor.on_start(job)
        self._log_decision(f"start:{job.name}:{len(nodes)}")
        tracer = self.tracer
        if tracer is not None:
            for node in nodes:
                self._trace_node_alloc(tracer, node, job, reserved=False)
            tracer.instant(
                "job.start",
                "batch",
                job.name,
                self.env.now,
                jid=job.jid,
                nodes=[n.index for n in nodes],
                queued=len(self.queue),
                walltime=job.walltime if job.walltime < inf else None,
            )
        self._sync_allocation()

        done = self.env.event()
        self._done_events[job.jid] = done
        executor = JobExecutor(self.env, self.platform, self.model, job, self)
        self._executors[job.jid] = executor
        proc = self.env.process(self._runner(job, executor), name=f"run-{job.name}")
        self._procs[job.jid] = proc
        if job.walltime < inf:
            self._watchdog_procs[job.jid] = self.env.process(
                self._watchdog(job, proc, done), name=f"watchdog-{job.name}"
            )

    def order_reconfiguration(self, job: Job, target: Sequence[Node]) -> None:
        current = {n.index for n in job.assigned_nodes}
        added = [node for node in target if node.index not in current]
        for node in added:
            node.allocate(job)  # reserve additions immediately
        job.pending_reconfiguration = ReconfigurationOrder(target, self.env.now)
        self._log_decision(f"reconfigure:{job.name}:{len(current)}->{len(target)}")
        tracer = self.tracer
        if tracer is not None:
            target_set = {n.index for n in target}
            for node in added:
                self._trace_node_alloc(tracer, node, job, reserved=True)
            tracer.instant(
                "reconf.order",
                "scheduler",
                job.name,
                self.env.now,
                jid=job.jid,
                target=sorted(target_set),
                added=sorted(n.index for n in added),
                removed=sorted(current - target_set),
            )
        self._sync_allocation()
        self._release_evolving_wait(job)

    def deny_evolving_request(self, job: Job) -> None:
        """Explicitly deny a blocking evolving request: the job continues
        with its current allocation instead of waiting for a grant."""
        job.evolving_denied = True
        self._waiting_evolving.pop(job, None)
        self._log_decision(f"deny:{job.name}")
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "reconf.deny", "scheduler", job.name, self.env.now, jid=job.jid
            )
        self._release_evolving_wait(job)

    def _release_evolving_wait(self, job: Job) -> None:
        self._waiting_evolving.pop(job, None)
        wait = job.evolving_wait_event
        if wait is not None and not wait.triggered:
            wait.succeed()

    def kill_job(self, job: Job, reason: str) -> None:
        if job.state is JobState.PENDING:
            self.queue.remove(job)
            job.mark_killed(self.env.now, reason)
            self.monitor.on_queue_drop(job)
            self._log_decision(f"drop:{job.name}:{reason}")
            tracer = self.tracer
            if tracer is not None:
                tracer.instant(
                    "job.queue_drop",
                    "batch",
                    job.name,
                    self.env.now,
                    jid=job.jid,
                    reason=reason,
                    queued=len(self.queue),
                )
            self._job_accounted()
            return
        if job.jid in self._kill_pending:
            return  # an interrupt is already on its way (same-instant kills)
        proc = self._procs.get(job.jid)
        if proc is not None and proc.is_alive:
            self._kill_pending.add(job.jid)
            self._log_decision(f"kill:{job.name}:{reason}")
            if proc is self.env.active_process:
                # The scheduler is killing the very job whose scheduling
                # point (or evolving request) triggered this invocation —
                # the interrupt would be a self-interrupt, which the DES
                # forbids.  Deliver it from a helper process instead: it
                # runs at the same instant, right after the executor's
                # next yield.
                self.env.process(
                    self._deferred_kill(job, proc, reason),
                    name=f"kill-{job.name}",
                )
            else:
                proc.interrupt(reason)

    def _deferred_kill(self, job: Job, proc, reason: str):
        if proc.is_alive and job.jid in self._kill_pending:
            proc.interrupt(reason)
        return
        yield  # pragma: no cover - generator marker, never reached

    # -- engine callbacks (BatchCallbacks protocol) ----------------------------

    def place_tasks(self, job: Job, task) -> Optional[List[Node]]:
        """Two-level scheduling hook: ask the algorithm to place one task.

        Called by the executor before running each task.  Returns the node
        subset the task should occupy, or None for the default (the job's
        whole allocation).  The algorithm's answer is validated here: it
        must be a non-empty, duplicate-free subset of the job's current
        allocation — the hook places work *within* an allocation, it never
        changes the allocation itself.
        """
        if not self._has_placement:
            return None
        chosen = self.algorithm.place_tasks(job, task, job.assigned_nodes)
        if chosen is None:
            return None
        nodes = list(chosen)
        if not nodes:
            raise BatchError(
                f"{self.algorithm.name}: place_tasks returned an empty "
                f"placement for {job.name}/{task.name}"
            )
        allowed = {id(node) for node in job.assigned_nodes}
        seen: set = set()
        for node in nodes:
            if id(node) not in allowed:
                raise BatchError(
                    f"{self.algorithm.name}: place_tasks placed "
                    f"{job.name}/{task.name} on node {node.name}, which is "
                    "not part of the job's allocation"
                )
            if id(node) in seen:
                raise BatchError(
                    f"{self.algorithm.name}: place_tasks returned node "
                    f"{node.name} twice for {job.name}/{task.name}"
                )
            seen.add(id(node))
        return nodes

    def current_power(self) -> float:
        """Aggregate node draw in watts (0.0 on powerless platforms)."""
        meter = self.monitor.power
        if meter is not None:
            return meter.current_watts
        return self.platform.current_power()

    def on_scheduling_point(self, job: Job) -> None:
        self._invoke(InvocationType.SCHEDULING_POINT, job)

    def on_evolving_request(self, job: Job, desired_nodes: int) -> None:
        # Track the job before invoking: a blocking request that the
        # algorithm cannot satisfy right now is retried when resources
        # free up (completions / committed reconfigurations).
        self._waiting_evolving[job] = None
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "evolve.request",
                "batch",
                job.name,
                self.env.now,
                jid=job.jid,
                current=len(job.assigned_nodes),
                desired=desired_nodes,
            )
        self._invoke(InvocationType.EVOLVING_REQUEST, job)
        if job.pending_reconfiguration is not None or job.evolving_request is None:
            self._waiting_evolving.pop(job, None)

    def _retry_waiting_evolving(self) -> None:
        for job in sorted(self._waiting_evolving, key=lambda j: j.jid):
            if (
                job.state is not JobState.RUNNING
                or job.evolving_request is None
                or job.pending_reconfiguration is not None
            ):
                self._waiting_evolving.pop(job, None)
                continue
            self._invoke(InvocationType.EVOLVING_REQUEST, job)
            if job.pending_reconfiguration is not None:
                self._waiting_evolving.pop(job, None)

    def commit_reconfiguration(self, job: Job, new_nodes: Sequence[Node]) -> None:
        old_count = len(job.assigned_nodes)
        new_set = {n.index for n in new_nodes}
        tracer = self.tracer
        for node in job.assigned_nodes:
            if node.index not in new_set:
                node.deallocate()
                if tracer is not None:
                    self._trace_node_release(tracer, node, job)
        job.assigned_nodes = list(new_nodes)
        self.monitor.on_reconfigure(job, old_count, len(new_nodes))
        if tracer is not None:
            tracer.instant(
                "reconf.commit",
                "batch",
                job.name,
                self.env.now,
                jid=job.jid,
                nodes=sorted(new_set),
                old=old_count,
                new=len(new_nodes),
            )
        self._sync_allocation()
        self._invoke(InvocationType.RECONFIGURATION, job)
        self._retry_waiting_evolving()

    # -- lifecycle ----------------------------------------------------------------

    def _finish_job(self, job: Job, outcome: str) -> None:
        # Free everything the job holds, including nodes reserved for a
        # never-applied reconfiguration order.
        held = {n.index: n for n in job.assigned_nodes}
        order = job.pending_reconfiguration
        if order is not None:
            for node in order.target:
                held[node.index] = node
            job.pending_reconfiguration = None
        tracer = self.tracer
        for node in held.values():
            if not node.free and node.assigned_job is job:
                node.deallocate()
                if tracer is not None:
                    self._trace_node_release(tracer, node, job)

        self.running.remove(job)
        if outcome == "completed":
            job.mark_completed(self.env.now)
        else:
            job.mark_killed(self.env.now, job.kill_reason or "killed")
        self.monitor.on_end(job)
        if tracer is not None:
            kind = "job.complete" if outcome == "completed" else "job.kill"
            tracer.instant(
                kind,
                "batch",
                job.name,
                self.env.now,
                jid=job.jid,
                reason=job.kill_reason,
                runtime=job.runtime,
            )
        self._sync_allocation()

        done = self._done_events.pop(job.jid, None)
        if done is not None and not done.triggered:
            done.succeed()
        self._procs.pop(job.jid, None)
        self._executors.pop(job.jid, None)
        self._kill_pending.discard(job.jid)
        self._waiting_evolving.pop(job, None)
        job.evolving_wait_event = None

        # Requeue first so the clone raises the completion target before the
        # killed job is accounted (all_done must wait for the retry).
        self._maybe_requeue(job)
        self._job_accounted()
        self._invoke(InvocationType.JOB_COMPLETION, job)
        self._retry_waiting_evolving()

    def _maybe_requeue(self, job: Job) -> bool:
        """Resubmit a killed job as a fresh clone when policy allows.

        Preempted jobs always requeue (preemption is a deferral, not a
        cancellation); failure-killed jobs requeue when
        ``requeue_on_failure`` is set, bounded by ``max_requeues``.  The
        clone joins ``self.jobs``, raising the completion target: the
        campaign is not done until the retry finishes too.
        """
        if job.kill_reason == "preempted":
            pass  # always requeued; priority ordering prevents ping-pong
        elif not self.requeue_on_failure or job.kill_reason != "node_failure":
            return False
        elif job.attempt > self.max_requeues:
            return False
        new_jid = max(j.jid for j in self.jobs) + 1
        clone = job.clone_for_requeue(
            new_jid, submit_time=self.env.now, resume=self.checkpoint_restart
        )
        self.jobs.append(clone)
        self.queue.append(clone)
        self.monitor.on_submit(clone)
        tracer = self.tracer
        if tracer is not None:
            # Mirror _submitter's record: the queue-accounting invariant
            # counts submits from the trace stream, and a requeue clone is
            # a submission like any other.
            tracer.instant(
                "job.submit",
                "batch",
                clone.name,
                self.env.now,
                jid=clone.jid,
                user=clone.user,
                type=clone.type.value,
                nodes=clone.num_nodes,
                queued=len(self.queue),
            )
        self._invoke(InvocationType.JOB_SUBMIT, clone)
        return True

    def _job_accounted(self) -> None:
        self._finished_count += 1
        if self._finished_count >= len(self.jobs) and not self.all_done.triggered:
            self.all_done.succeed()

    def _sync_allocation(self) -> None:
        allocated = self.platform.num_allocated_nodes()
        self.monitor.set_allocated(allocated)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("alloc.count", "batch", "allocated", self.env.now, n=allocated)

    # -- snapshot / restore --------------------------------------------------

    def capture_state(self, registry) -> dict:
        """Snapshot queue/running membership, counters, and every live
        batch process as (resume generator id, pending timer) pairs.

        Must run at a quiet boundary: no kill interrupts in flight, no
        scheduler invocation on the stack.  Claims all batch-owned queued
        timeouts in ``registry`` so the environment capture can reference
        them; executor capture claims activity waits recursively.
        """
        if self._kill_pending:
            raise RuntimeError(
                f"kill interrupts in flight for jids {sorted(self._kill_pending)}; "
                "not a quiet boundary"
            )
        if self._decision_log is not None:
            raise RuntimeError("scheduler invocation in flight; not a quiet boundary")

        submitters = []
        for jid, timer in sorted(self._submit_timers.items()):
            sid = f"submit.{jid}"
            registry.claim(sid, timer)
            submitters.append({"jid": jid, "sid": sid, "delay": timer.delay})

        periodic = None
        if self._periodic_proc is not None and self._periodic_proc.is_alive:
            sid = "periodic.timer"
            registry.claim(sid, self._periodic_timer)
            periodic = {"sid": sid, "delay": self._periodic_timer.delay}

        failures = []
        for idx in sorted(self._failure_procs):
            proc = self._failure_procs[idx]
            if not proc.is_alive:
                continue
            timer = self._failure_timers[idx]
            sid = f"failure.{idx}.timer"
            registry.claim(sid, timer)
            failures.append(
                {
                    "idx": idx,
                    "stage": self._failure_stage[idx],
                    "sid": sid,
                    "delay": timer.delay,
                }
            )

        watchdogs = []
        for jid, timer in sorted(self._watchdog_timers.items()):
            sid = f"watchdog.{jid}.timer"
            registry.claim(sid, timer)
            watchdogs.append({"jid": jid, "sid": sid, "delay": timer.delay})

        executors = {
            str(jid): self._executors[jid].capture_state(registry, f"exec.{jid}")
            for jid in sorted(self._executors)
        }

        return {
            "queue": [job.jid for job in self.queue],
            "running": [job.jid for job in self.running],
            "finished_count": self._finished_count,
            "invocations": self.invocations,
            "waiting_evolving": [job.jid for job in self._waiting_evolving],
            "submitters": submitters,
            "periodic": periodic,
            "failures": failures,
            "watchdogs": watchdogs,
            "executors": executors,
        }

    def restore_state(self, state: dict, registry, ctx) -> None:
        """Rebuild batch containers and re-enter every live process.

        ``ctx`` is the replay restore helper: ``rebuild_timeout(sid, delay)``
        returns a raw (constructor-bypassing) Timeout claimed under ``sid``,
        and ``resolve_executor_wait(...)`` turns a captured executor cursor
        into the live wait objects its resume generator needs.  Re-entry
        creates no event ids — the environment's queue restore assigns the
        canonical ids afterwards.
        """
        jobs_by_jid = {job.jid: job for job in self.jobs}
        self.queue = [jobs_by_jid[jid] for jid in state["queue"]]
        self.running = [jobs_by_jid[jid] for jid in state["running"]]
        self._finished_count = state["finished_count"]
        self.invocations = state["invocations"]
        self._waiting_evolving = {
            jobs_by_jid[jid]: None for jid in state["waiting_evolving"]
        }

        for rec in state["submitters"]:
            job = jobs_by_jid[rec["jid"]]
            timer = ctx.rebuild_timeout(rec["sid"], rec["delay"])
            self._submit_timers[job.jid] = timer
            Process.reenter(
                self.env, self._submit_after(job, timer), f"submit-{job.name}"
            )

        if state["periodic"] is not None:
            timer = ctx.rebuild_timeout(
                state["periodic"]["sid"], state["periodic"]["delay"]
            )
            self._periodic_timer = timer
            self._periodic_proc = Process.reenter(
                self.env, self._periodic_from(timer), "periodic-scheduler"
            )

        for rec in state["failures"]:
            idx = rec["idx"]
            failure = self.failures[idx]
            timer = ctx.rebuild_timeout(rec["sid"], rec["delay"])
            stage = rec["stage"]
            self._failure_stage[idx] = stage
            self._failure_timers[idx] = timer
            if stage == 0:
                gen = self._failure_armed(idx, failure, timer)
            elif stage == 1:
                gen = self._failure_extend(idx, timer)
            else:
                gen = self._failure_downtime(idx, failure, timer)
            self._failure_procs[idx] = Process.reenter(
                self.env, gen, f"failure-n{failure.node_index}"
            )

        watchdog_recs = {rec["jid"]: rec for rec in state["watchdogs"]}
        for job in self.running:
            cursor = state["executors"][str(job.jid)]
            executor = JobExecutor(self.env, self.platform, self.model, job, self)
            self._executors[job.jid] = executor
            resolved = ctx.resolve_executor_wait(
                self, executor, cursor, f"exec.{job.jid}"
            )
            proc = Process.reenter(
                self.env,
                self._runner_resumed(job, executor, cursor, resolved),
                f"run-{job.name}",
            )
            self._procs[job.jid] = proc
            done = self.env.event()
            self._done_events[job.jid] = done
            rec = watchdog_recs.get(job.jid)
            if rec is not None:
                timer = ctx.rebuild_timeout(rec["sid"], rec["delay"])
                self._watchdog_timers[job.jid] = timer
                self._watchdog_procs[job.jid] = Process.reenter(
                    self.env,
                    self._watchdog_wait(job, proc, done, timer),
                    f"watchdog-{job.name}",
                )

    # -- tracing helpers -----------------------------------------------------

    def _trace_node_alloc(self, tracer, node: Node, job: Job, *, reserved: bool) -> None:
        """Record a node grab: an instant plus the start of a hold span."""
        now = self.env.now
        track = f"node:{node.index}"
        tracer.instant(
            "node.alloc", track, job.name, now,
            node=node.index, jid=job.jid, reserved=reserved,
        )
        tracer.begin(
            ("hold", node.index), "node.hold", track, job.name, now,
            node=node.index, jid=job.jid, reserved=reserved,
        )

    def _trace_node_release(self, tracer, node: Node, job: Job) -> None:
        """Record a node release: an instant plus the end of its hold span."""
        now = self.env.now
        tracer.instant(
            "node.release", f"node:{node.index}", job.name, now,
            node=node.index, jid=job.jid,
        )
        tracer.end(("hold", node.index), now)


#: Default of a scenario's ``sim``: read, never written.  ``null`` is not
#: taken for it, because callers do ``spec.get("sim", {}).get("until")``.
_NO_SIM: dict = {}
_SCENARIO = (
    ("platform", OBJECT, REQUIRED, None),
    ("workload", OBJECT, REQUIRED, None),
    ("algorithm", TEXT, "easy", 1),
    ("seed", INTEGER, 0, GE0),
    ("sim", OBJECT, _NO_SIM, None),
    ("name", TEXT, None, None),  # report labels: carried, not read
    ("params", OBJECT, None, None),
)
_WORKLOAD = (  # the first of the four that is given decides
    ("generate", OBJECT, None, None),
    ("file", TEXT, None, 1),
    ("inline", OBJECT, None, None),
    ("swf", OBJECT, None, None),
    ("sha256", TEXT, None, None),  # the pin campaign loading puts beside ``file``
    ("name", TEXT, None, None),  # a campaign's label of one of its ``workloads``
)
_SIM = (
    ("invocation_interval", NUMBER, None, GT0),
    ("requeue_on_failure", FLAG, False, None),
    ("max_requeues", INTEGER, 3, GE0),
    ("checkpoint_restart", FLAG, False, None),
    ("until", NUMBER, None, GT0),  # for ``Simulation.run``
    ("failures", OBJECT, None, None),
)
_FAILURES = (
    ("trace", LIST, None, None),
    ("mtbf", NUMBER, None, GT0),
    ("mean_repair", NUMBER, 300.0, GT0),
    ("seed", INTEGER, None, GE0),
    ("horizon", NUMBER, None, GT0),
)
_FAILURE = (
    ("time", NUMBER, REQUIRED, GE0),
    ("node", INTEGER, REQUIRED, GE0),
    ("downtime", NUMBER, REQUIRED, GT0),
)


_SCALARS = frozenset((str, float, int, bool, type(None)))


def _copied(value):
    """A deep copy of JSON-shaped data, which a checked scenario is, at a
    third of ``deepcopy``'s cost; whatever else it holds is deep-copied."""
    kind = type(value)
    if kind is dict:
        return {key: _copied(item) for key, item in value.items()}
    if kind is list:
        return [_copied(item) for item in value]
    return value if kind in _SCALARS else deepcopy(value)


def _under(key: str, load, *args, **kwargs):
    """``load(...)``, its input errors prefixed with the key it was read under."""
    try:
        return load(*args, **kwargs)
    except InputError as exc:
        raise type(exc)(f"{key}.{exc}") from None


def _read_platform(spec: dict) -> Platform:
    return _under("platform", platform_from_dict, spec)


def _read_workload(block: dict):
    """A scenario's ``workload`` block, checked: its kind, and what there is
    to build from — ``(WorkloadSpec, own seed)`` of a ``generate`` block, the
    ``swf`` block, the jobs of a ``file`` or an ``inline`` workload."""
    from repro.workload import WorkloadError, WorkloadSpec, load_workload, workload_from_dict
    from repro.workload.generator import _GENERATE
    from repro.workload.malleable_mix import _read_swf_block

    given = read(block, _WORKLOAD, "workload", WorkloadError)
    if given["generate"] is not None:
        fields = read(given["generate"], _GENERATE, "workload.generate", WorkloadError)
        own_seed = fields.pop("seed")
        generate = WorkloadSpec(**fields)
        _under("workload.generate", generate.validate)
        return "generate", (generate, own_seed)
    if given["file"] is not None:
        return "file", load_workload(given["file"])
    if given["inline"] is not None:
        return "inline", _under("workload.inline", workload_from_dict, given["inline"])
    if given["swf"] is not None:
        _under("workload", _read_swf_block, given["swf"])
        return "swf", given["swf"]
    raise WorkloadError(
        "workload.generate, workload.file, workload.inline or workload.swf is required"
    )


def _read_sim(sim) -> tuple:
    """A scenario's ``sim`` block, checked: :class:`Simulation`'s keyword
    options, and the ``failures`` block (None without one)."""
    options = read(sim, _SIM, "sim", InputError)
    del options["until"]
    failing = options.pop("failures")
    if failing:
        failing = read(failing, _FAILURES, "sim.failures", FailureError)
        if failing["trace"] is not None:
            failing["trace"] = [
                read(entry, _FAILURE, f"sim.failures.trace[{i}]", FailureError)
                for i, entry in enumerate(failing["trace"])
            ]
        elif failing["mtbf"] is None:
            raise FailureError("sim.failures.trace or sim.failures.mtbf is required")
    return options, failing or None


#: What checks each part of a scenario.  Loading a campaign runs each once
#: per distinct fragment of its grid; :func:`_read_scenario` runs all three.
_PART_READERS = {"platform": _read_platform, "workload": _read_workload, "sim": _read_sim}


def _read_scenario(spec) -> tuple:
    """A scenario, checked: its top-level values and what the three part
    readers made of ``platform``, ``workload`` and ``sim``."""
    top = read(spec, _SCENARIO, "", InputError)
    return (top, *(check(top[part]) for part, check in _PART_READERS.items()))


class Simulation:
    """Top-level façade: build, run, and collect results.

    Parameters
    ----------
    platform:
        The machine (see :mod:`repro.platform`).
    jobs:
        The workload (see :mod:`repro.workload`).
    algorithm:
        An :class:`~repro.scheduler.Algorithm` instance or a registry name
        ("fcfs", "easy", "conservative", "moldable", "malleable").
    invocation_interval:
        Optional period for time-driven scheduler invocations on top of the
        event-driven ones.
    env:
        Bring-your-own environment (tests, co-simulation); default fresh.
    reference:
        Run on the reference engine instead of the production one — same
        results, slowly; see :class:`~repro.sharing.FairShareModel`.
    """

    def __init__(
        self,
        platform: Platform,
        jobs: Sequence[Job],
        algorithm: Union[str, Algorithm] = "easy",
        *,
        invocation_interval: Optional[float] = None,
        failures: Optional[Sequence[Failure]] = None,
        requeue_on_failure: bool = False,
        max_requeues: int = 3,
        checkpoint_restart: bool = False,
        env: Optional[Environment] = None,
        start_processes: bool = True,
        reference: bool = False,
    ) -> None:
        self.env = env if env is not None else Environment()
        #: Flight recorder of the last traced :meth:`run` (None otherwise).
        self.tracer = None
        #: Invariant violations found by the last checked :meth:`run`.
        self.violations: List = []
        #: The scenario spec this simulation was built from (set by
        #: :meth:`from_spec`; None for directly-constructed simulations).
        #: Snapshots embed it so a resume can rebuild the object graph.
        self.spec: Optional[dict] = None
        #: Snapshots taken by the last ``run(snapshot_every=...)``.
        self.snapshots: List = []
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.batch = BatchSystem(
            self.env,
            platform,
            jobs,
            algorithm,
            invocation_interval=invocation_interval,
            failures=failures,
            requeue_on_failure=requeue_on_failure,
            max_requeues=max_requeues,
            checkpoint_restart=checkpoint_restart,
            start_processes=start_processes,
            reference=reference,
        )

    @classmethod
    def from_spec(
        cls, spec: Mapping, *, start_processes: bool = True, reference: bool = False
    ) -> "Simulation":
        """Build a simulation from a plain-dict scenario spec.

        The worker-safe construction path used by campaign workers
        (:mod:`repro.campaign`): everything crosses the process boundary
        as JSON-compatible data and is materialised here, inside the
        worker — platforms carry node state and must never be shared
        between runs, let alone pickled across processes mid-flight.

        Keys: ``platform`` (a :func:`platform_from_dict` spec), ``workload``
        (one of ``{"generate": {<WorkloadSpec fields>}}``, ``{"file":
        <path>}``, ``{"inline": {<workload_from_dict spec>}}``, ``{"swf":
        {<jobs_from_swf_block keys>}}``), ``algorithm``, ``seed``, ``sim``
        (``invocation_interval``, ``requeue_on_failure``, ``max_requeues``,
        ``checkpoint_restart``, ``until`` — which :meth:`run` takes, not this
        — and ``failures``: ``mtbf`` / ``mean_repair`` / ``seed`` /
        ``horizon``, or an explicit ``{"trace": [{"time", "node",
        "downtime"}, ...]}``), and the report labels ``name`` / ``params``;
        ``docs/API.md`` tables every field.  Anything wrong is an
        :class:`~repro.InputError` whose message starts with the path
        (``sim.failures.mtbf must be …``).
        ``reference`` is :class:`Simulation`'s: not part of the scenario.
        """
        from repro.workload import generate_workload, jobs_from_swf_block

        top, platform, (kind, made), (options, failing) = _read_scenario(spec)
        seed = top["seed"]
        if kind == "generate":
            generate, own_seed = made
            if own_seed is not None:
                seed = own_seed  # of the failure trace too, as it always was
            workload = generate_workload(generate, seed=seed)
        elif kind == "swf":
            workload = _under("workload", jobs_from_swf_block, made, seed=seed)
        else:
            workload = made
        failures = None
        if failing and failing["trace"] is not None:
            failures = [
                Failure(time=f["time"], node_index=f["node"], downtime=f["downtime"])
                for f in failing["trace"]
            ]
        elif failing:
            horizon = failing["horizon"]
            if horizon is None:
                horizon = max(j.submit_time for j in workload) + 10 * max(
                    (j.walltime for j in workload if j.walltime != inf),
                    default=86400.0,
                )
            failures = generate_failures(
                num_nodes=platform.num_nodes,
                horizon=horizon,
                mtbf=failing["mtbf"],
                mean_repair=failing["mean_repair"],
                seed=seed if failing["seed"] is None else failing["seed"],
            )
        instance = cls(
            platform,
            workload,
            algorithm=top["algorithm"],
            failures=failures,
            start_processes=start_processes,
            reference=reference,
            **options,
        )
        instance.spec = _copied(spec)
        return instance

    @property
    def monitor(self) -> Monitor:
        return self.batch.monitor

    def run_record(self) -> dict:
        """The monitor's deterministic run record plus ``invocations``,
        the scheduler invocation count: what campaign records, what-if
        results and their byte-identity checks carry as ``result``."""
        record = self.batch.monitor.run_record()
        record["invocations"] = self.batch.invocations
        return record

    @classmethod
    def resume(cls, snapshot) -> "Simulation":
        """Rebuild a live simulation from a :mod:`repro.replay` snapshot.

        The returned simulation continues bit-for-bit where the snapshot
        was taken: calling :meth:`run` on it produces a ``run_record`` and
        ``processed_events`` byte-identical to the cold run's.
        """
        from repro.replay import restore_simulation

        return restore_simulation(snapshot)

    def run(
        self,
        until: Optional[float] = None,
        *,
        trace=None,
        check_invariants: bool = False,
        snapshot_every: Optional[int] = None,
        snapshot_callback=None,
    ) -> Monitor:
        """Run to completion (or ``until``) and return the monitor.

        Parameters
        ----------
        until:
            Optional stop time (default: run until every job finished).
        snapshot_every:
            Take a full-state snapshot roughly every N processed events
            (at the first quiet boundary at or after each multiple; see
            :mod:`repro.replay`).  Snapshots collect on :attr:`snapshots`
            and are passed to ``snapshot_callback`` if given.  Requires a
            run to completion (``until=None``), a ``from_spec``-built
            simulation, and no tracing.
        trace:
            Enable the flight recorder (see :mod:`repro.tracing`).  Pass a
            :class:`~repro.tracing.Tracer` to buffer in memory, or a path
            to additionally export on exit — ``*.json`` writes Chrome
            trace-event format (Perfetto-loadable), anything else JSONL.
            The tracer is exposed as :attr:`tracer` afterwards.
        check_invariants:
            Subscribe the online invariant checker to the trace stream
            (implies an in-memory tracer if ``trace`` is None) and audit
            the monitor's series/segment consistency after the run.
            Raises :class:`~repro.tracing.InvariantViolation` if anything
            failed; the violations also remain on :attr:`violations`.

        Raises :class:`BatchError` if the workload gets stuck — i.e. events
        ran out while jobs are still pending and nothing can unblock them.
        """
        from repro.expressions import STATS as _EXPR_STATS

        expr_start = _EXPR_STATS.snapshot()
        tracer = checker = None
        trace_path: Optional[Path] = None
        if trace is not None or check_invariants:
            from repro.tracing import InvariantChecker, Tracer

            if isinstance(trace, Tracer):
                tracer = trace
            else:
                tracer = Tracer()
                if trace is not None:
                    trace_path = Path(trace)
            # Power profile rides along in sim.start (and arms the
            # streaming corridor audit) only when the platform declares
            # draw; the corridor is audited only for algorithms that claim
            # to respect it — the cap is a policy contract, not a law of
            # physics for corridor-oblivious schedulers.
            power_profile = self.batch.platform.power_profile()
            if power_profile is not None:
                power_profile = dict(
                    power_profile,
                    enforced=self.batch.algorithm.respects_power_corridor,
                )
            if check_invariants:
                checker = InvariantChecker(
                    num_nodes=self.batch.platform.num_nodes,
                    power=power_profile,
                )
                tracer.subscribe(checker.feed)
            self.tracer = tracer
            self.batch.tracer = tracer
            self.env.tracer = tracer
            self.batch.model.tracer = tracer
            start_args = dict(
                nodes=self.batch.platform.num_nodes,
                jobs=len(self.batch.jobs),
                algorithm=self.batch.algorithm.name,
            )
            if power_profile is not None:
                start_args["power"] = power_profile
            tracer.instant(
                "sim.start",
                "batch",
                self.batch.platform.name,
                self.env.now,
                **start_args,
            )

        hook = first_target = None
        if snapshot_every is not None:
            if snapshot_every <= 0:
                raise BatchError("snapshot_every must be > 0")
            if until is not None:
                raise BatchError("snapshot_every requires a run to completion")
            if tracer is not None:
                raise BatchError("snapshot_every is incompatible with tracing")
            from repro.replay import capture_snapshot

            self.snapshots = []

            def hook() -> int:
                snap = capture_snapshot(self)
                self.snapshots.append(snap)
                if snapshot_callback is not None:
                    snapshot_callback(snap)
                return self.env.processed_events + snapshot_every

            first_target = self.env.processed_events + snapshot_every

        try:
            if until is not None:
                self.env.run(until=until)
            else:
                try:
                    if hook is not None:
                        self.env.run_hooked(self.batch.all_done, first_target, hook)
                    else:
                        self.env.run(until=self.batch.all_done)
                except SimulationError:
                    stuck = [job.name for job in self.batch.queue]
                    running = [job.name for job in self.batch.running]
                    raise BatchError(
                        f"Simulation stalled: pending={stuck} running={running}. "
                        "Jobs cannot start (e.g. they need more nodes than the "
                        "scheduler will ever free)."
                    ) from None
        finally:
            if tracer is not None:
                tracer.instant(
                    "sim.end", "batch", self.batch.platform.name, self.env.now
                )
                tracer.close_open(self.env.now)
                if trace_path is not None:
                    if trace_path.suffix == ".json":
                        tracer.to_chrome(trace_path)
                    else:
                        tracer.to_jsonl(trace_path)

        self.monitor.attach_solver_stats(self.batch.model)
        self.monitor.attach_expression_stats(_EXPR_STATS.since(expr_start))
        self.monitor.finalize()
        if checker is not None:
            from repro.tracing import InvariantViolation, check_monitor

            checker.finish()
            violations = list(checker.violations)
            violations.extend(check_monitor(self.monitor))
            self.violations = violations
            if violations:
                raise InvariantViolation(violations)
        return self.monitor
