"""Built-in scheduling algorithms.

All algorithms treat ``job.walltime`` as the runtime *estimate* (the
standard batch-system convention); jobs without a walltime are assumed to
run arbitrarily long, which disables backfilling around them.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heapreplace
from math import inf
from typing import Dict, List, Optional, Type

from repro.job import Job, JobClass, JobType
from repro.scheduler.base import Algorithm
from repro.scheduler.context import Invocation, InvocationType, SchedulerContext, SchedulerError


def _start_size(job: Job) -> int:
    """Nodes a queue-order scheduler gives a job at start (its request)."""
    return job.num_nodes


class FcfsScheduler(Algorithm):
    """Strict first-come-first-served: the queue head blocks everyone."""

    name = "fcfs"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        free = ctx.free_nodes()  # changes only via start_job below
        for job in ctx.pending_jobs:
            need = job.num_nodes  # == _start_size(job), inlined (hot loop)
            if need > len(free):
                return  # strict FCFS: later jobs must wait
            ctx.start_job(job, free[:need])
            free = ctx.free_nodes()


class EasyBackfillingScheduler(Algorithm):
    """FCFS plus EASY (aggressive) backfilling.

    When the queue head cannot start, a *shadow time* is computed — the
    earliest instant the head can start given running jobs' walltime-based
    expected ends.  Later queued jobs may jump ahead if they either finish
    before the shadow time or fit into the nodes left over at it.

    Subclasses may override :meth:`queue_order` to reorder the queue before
    the FCFS pass (SJF, fair share, priorities); the reservation then
    protects the *reordered* head.
    """

    name = "easy"

    def queue_order(self, ctx: SchedulerContext) -> List[Job]:
        """The order in which queued jobs are considered (default FCFS)."""
        return ctx.pending_jobs

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        self._start_in_order(ctx)
        pending = self.queue_order(ctx)  # contract: returns a fresh list
        if not pending:
            return
        head = pending[0]
        shadow_time, extra_nodes = self._reservation(ctx, head)
        free = ctx.free_nodes()  # changes only via start_job below
        for job in pending[1:]:
            need = job.num_nodes  # == _start_size(job), inlined (hot loop)
            if need > len(free):
                continue
            finishes_before_shadow = (
                job.walltime < inf and ctx.now + job.walltime <= shadow_time
            )
            if finishes_before_shadow:
                ctx.start_job(job, free[:need])
                free = ctx.free_nodes()
            elif need <= extra_nodes:
                ctx.start_job(job, free[:need])
                extra_nodes -= need
                free = ctx.free_nodes()

    def _start_in_order(self, ctx: SchedulerContext) -> None:
        free = ctx.free_nodes()  # changes only via start_job below
        for job in self.queue_order(ctx):
            need = job.num_nodes  # == _start_size(job), inlined (hot loop)
            if need > len(free):
                return
            ctx.start_job(job, free[:need])
            free = ctx.free_nodes()

    @staticmethod
    def _reservation(ctx: SchedulerContext, head: Job) -> tuple[float, int]:
        """(shadow time, nodes spare at it) for the queue head."""
        need = _start_size(head)
        available = ctx.num_free_nodes()
        # Inlined ctx.expected_end: walltime-based end estimate, inf when
        # unknowable (runs once per running job on every invocation).
        ends = sorted(
            (
                (
                    inf
                    if job.start_time is None or job.walltime == inf
                    else job.start_time + job.walltime,
                    len(job.assigned_nodes),
                )
                for job in ctx.running_jobs
            ),
            key=lambda pair: pair[0],
        )
        for end, count in ends:
            available += count
            if available >= need:
                return end, available - need
        return inf, 0


class SjfBackfillingScheduler(EasyBackfillingScheduler):
    """Shortest-job-first ordering with EASY backfilling.

    Orders the queue by walltime estimate (ties: submit order), trading
    worst-case wait of long jobs for mean wait/slowdown — the standard
    throughput-oriented variant used as a comparison point in scheduling
    studies.  Jobs without walltimes sort last.
    """

    name = "sjf"

    def queue_order(self, ctx: SchedulerContext) -> List[Job]:
        return sorted(ctx.pending_jobs, key=lambda j: (j.walltime, j.jid))


class UserFairShareScheduler(EasyBackfillingScheduler):
    """Fair-share queue ordering: users with less accumulated usage first.

    Tracks node-seconds consumed per user (updated at job completions) and
    orders the queue ascending by the owner's usage, then submit order —
    so light users overtake heavy ones, with EASY backfilling on top.
    """

    name = "fairshare"

    def __init__(self) -> None:
        self.usage: Dict[str, float] = {}

    def queue_order(self, ctx: SchedulerContext) -> List[Job]:
        return sorted(
            ctx.pending_jobs,
            key=lambda j: (self.usage.get(j.user, 0.0), j.jid),
        )

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type is InvocationType.JOB_COMPLETION
            and invocation.job is not None
            and invocation.job.runtime is not None
        ):
            job = invocation.job
            consumed = job.runtime * len(job.assigned_nodes)
            self.usage[job.user] = self.usage.get(job.user, 0.0) + consumed
        super().schedule(ctx, invocation)

    def capture_state(self) -> dict:
        return {"usage": dict(self.usage)}

    def restore_state(self, state: "dict | None") -> None:
        self.usage = dict(state["usage"]) if state is not None else {}


class PreemptivePriorityScheduler(EasyBackfillingScheduler):
    """Priority queue ordering with optional preemption.

    The queue is ordered by descending :attr:`Job.priority` (ties FCFS)
    with EASY backfilling on top.  When the highest-priority queued job
    cannot start, running jobs of *strictly lower* priority are killed
    with reason ``"preempted"`` — the batch system requeues them
    automatically (resuming from their last scheduling point if the
    simulation enables ``checkpoint_restart``).  Victims are chosen
    lowest-priority first, then latest-started first (least work lost).
    """

    name = "priority-preempt"

    def __init__(self, *, preempt: bool = True) -> None:
        self.preempt_enabled = preempt

    def queue_order(self, ctx: SchedulerContext) -> List[Job]:
        return sorted(ctx.pending_jobs, key=lambda j: (-j.priority, j.jid))

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        super().schedule(ctx, invocation)
        if not self.preempt_enabled:
            return
        pending = self.queue_order(ctx)
        if not pending:
            return
        head = pending[0]
        deficit = _start_size(head) - ctx.num_free_nodes()
        if deficit <= 0:
            return
        victims = sorted(
            (
                job
                for job in ctx.running_jobs
                if job.priority < head.priority
            ),
            key=lambda j: (j.priority, -(j.start_time or 0.0)),
        )
        freeable = sum(len(v.assigned_nodes) for v in victims)
        if freeable < deficit:
            return  # preemption cannot admit the head; do not waste work
        for victim in victims:
            if deficit <= 0:
                break
            deficit -= len(victim.assigned_nodes)
            ctx.kill_job(victim, reason="preempted")


class ConservativeBackfillingScheduler(Algorithm):
    """Backfilling with a reservation for *every* queued job.

    Reservations are recomputed from scratch at each invocation (the
    simulator invokes the scheduler on every relevant event, so this is
    equivalent to maintaining them incrementally and much simpler).  A job
    starts now only if doing so cannot delay any earlier-queued job's
    earliest possible start.
    """

    name = "conservative"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        profile = _AvailabilityProfile(ctx)
        for job in ctx.pending_jobs:
            need = _start_size(job)
            estimate = job.walltime
            start = profile.earliest_start(need, estimate)
            if start <= ctx.now:
                free = ctx.free_nodes()
                ctx.start_job(job, free[:need])
                profile.reserve(ctx.now, need, estimate)
            else:
                profile.reserve(start, need, estimate)


class _AvailabilityProfile:
    """Piecewise-constant future node availability.

    Built from the free-node count now plus running jobs' expected ends;
    reservations carve capacity out of it.
    """

    def __init__(self, ctx: SchedulerContext) -> None:
        self.now = ctx.now
        # Sorted breakpoints: time -> available from that time onward.
        self._times: List[float] = [ctx.now]
        self._avail: List[int] = [ctx.num_free_nodes()]
        releases: Dict[float, int] = {}
        for job in ctx.running_jobs:
            end = ctx.expected_end(job)
            if end < inf:
                releases[end] = releases.get(end, 0) + len(job.assigned_nodes)
        for end in sorted(releases):
            self._times.append(end)
            self._avail.append(self._avail[-1] + releases[end])

    def earliest_start(self, need: int, duration: float) -> float:
        """Earliest t >= now with `need` nodes available on [t, t+duration)."""
        for i, t in enumerate(self._times):
            if self._avail[i] < need:
                continue
            # Check the whole window [t, t + duration).
            end = t + duration
            ok = True
            for j in range(i, len(self._times)):
                if self._times[j] >= end:
                    break
                if self._avail[j] < need:
                    ok = False
                    break
            if ok:
                return t
        return inf

    def reserve(self, start: float, need: int, duration: float) -> None:
        """Subtract `need` nodes on [start, start+duration)."""
        if start == inf:
            return
        end = start + duration
        self._ensure_breakpoint(start)
        if end < inf:
            self._ensure_breakpoint(end)
        for i, t in enumerate(self._times):
            if t >= end:
                break
            if t >= start:
                self._avail[i] -= need

    def _ensure_breakpoint(self, time: float) -> None:
        if time == inf or time in self._times:
            return
        for i, t in enumerate(self._times):
            if t > time:
                self._times.insert(i, time)
                self._avail.insert(i, self._avail[i - 1])
                return
        self._times.append(time)
        self._avail.append(self._avail[-1])


class MoldableScheduler(Algorithm):
    """FCFS that *molds* flexible jobs to the machine state at start.

    A moldable/malleable/evolving job starts as soon as ``min_nodes`` are
    free and receives ``min(free, max_nodes)`` nodes; rigid jobs keep FCFS
    semantics.  This is the classic moldable-aware baseline.
    """

    name = "moldable"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        for job in ctx.pending_jobs:
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    return
                ctx.start_job(job, free[: job.num_nodes])
            else:
                if job.min_nodes > len(free):
                    return
                size = min(len(free), job.max_nodes)
                ctx.start_job(job, free[:size])


class AdaptiveMoldableScheduler(Algorithm):
    """Moldable sizing that minimizes *estimated finish time*.

    For each flexible job the policy weighs "start now on the nodes that
    are free" against "wait until more nodes free up and run wider", using
    the walltime-based availability profile and a perfect-scaling runtime
    model within the job's bounds (Cirne & Berman's classic observation
    that the best moldable size depends on queue state, not just the
    application).  Rigid jobs keep FCFS semantics; a job is only started
    when its best size is available *now*, otherwise it blocks the queue
    (conservative, no starvation).
    """

    name = "adaptive-moldable"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        for job in ctx.pending_jobs:
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    return
                ctx.start_job(job, free[: job.num_nodes])
                continue
            size = self._best_size_now(ctx, job)
            if size is None:
                return  # waiting for a better (or any) start
            ctx.start_job(job, ctx.free_nodes()[:size])

    def _best_size_now(self, ctx: SchedulerContext, job: Job) -> Optional[int]:
        """The size to start with now, or None if waiting wins."""
        profile = _AvailabilityProfile(ctx)
        free_now = ctx.num_free_nodes()

        # Runtime model: walltime is the estimate at the *requested* size;
        # perfect scaling inside [min_nodes, max_nodes].
        reference = job.walltime if job.walltime < inf else None

        def runtime(k: int) -> float:
            if reference is None:
                return 1.0 / k  # only relative ordering matters
            return reference * job.num_nodes / k

        best_finish = inf
        best_size = None
        best_start = inf
        for k in range(job.min_nodes, job.max_nodes + 1):
            start = profile.earliest_start(k, runtime(k))
            if start == inf:
                continue
            finish = start + runtime(k)
            if finish < best_finish - 1e-12:
                best_finish = finish
                best_size = k
                best_start = start
        if best_size is None:
            # No walltime-informed window; fall back to whatever is free.
            if free_now >= job.min_nodes:
                return min(free_now, job.max_nodes)
            return None
        if best_start <= ctx.now and best_size <= free_now:
            return best_size
        return None


def _water_fill(targets: Dict[int, int], caps: Dict[int, int], spare: int) -> None:
    """Hand ``spare`` nodes out, in place: one at a time to the smallest
    of ``targets`` (jid → size) still below its cap, ties to the lowest
    jid for determinism."""
    growable = [(target, jid) for jid, target in targets.items() if target < caps[jid]]
    heapify(growable)
    while spare > 0 and growable:
        target, jid = growable[0]
        target += 1
        spare -= 1
        targets[jid] = target
        if target < caps[jid]:
            heapreplace(growable, (target, jid))
        else:
            heappop(growable)


class MalleableScheduler(Algorithm):
    """Fair-share malleable scheduling (the paper's showcase policy).

    Each invocation recomputes an *equipartition target* for every claimant
    — running malleable jobs plus the FCFS-admittable prefix of the queue —
    by water-filling the machine: every claimant gets its minimum
    (rigid jobs their exact request), then spare nodes are handed out one
    at a time to the currently-smallest target, respecting maxima.  The
    scheduler then

    1. **shrinks** running malleable jobs above target (released at their
       next scheduling point),
    2. **starts** admittable pending jobs at ``min(target, free)``, and
    3. **expands** running malleable jobs below target with free nodes.

    Evolving requests are granted with whatever is free, clamped to the
    application's ask and the job's bounds.  ``expand``/``shrink`` flags
    gate the respective passes (used by the ablation benchmarks).
    """

    name = "malleable"

    def __init__(self, *, expand: bool = True, shrink: bool = True) -> None:
        self.expand_enabled = expand
        self.shrink_enabled = shrink

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type.value == "evolving_request"
            and invocation.job is not None
        ):
            self._handle_evolving(ctx, invocation.job)
        targets, admitted = self._fair_targets(ctx)
        if self.shrink_enabled:
            self._shrink_toward_targets(ctx, targets)
        self._start_pending(ctx, targets, admitted)
        if self.expand_enabled:
            self._expand_toward_targets(ctx, targets)

    # -- target computation --------------------------------------------------

    @staticmethod
    def _fair_targets(ctx: SchedulerContext) -> tuple[Dict[int, int], List[Job]]:
        """(jid → target size, admittable pending prefix)."""
        total = ctx.platform.num_nodes

        fixed = 0
        adjustable: List[Job] = []
        for job in ctx.running_jobs:
            order = job.pending_reconfiguration
            if order is not None:
                fixed += len(order.target)  # committed decision, can't change
            elif job.type is JobType.MALLEABLE:
                adjustable.append(job)
            else:
                fixed += len(job.assigned_nodes)

        budget = total - fixed
        claimants: List[tuple[Job, int, int]] = [
            (job, job.min_nodes, job.max_nodes) for job in adjustable
        ]
        admitted: List[Job] = []
        committed = sum(mn for _, mn, _ in claimants)
        for job in ctx.pending_jobs:
            need = job.num_nodes if job.is_rigid else job.min_nodes
            cap = job.num_nodes if job.is_rigid else job.max_nodes
            if committed + need > budget:
                break  # strict FCFS admission
            claimants.append((job, need, cap))
            admitted.append(job)
            committed += need

        targets = {job.jid: mn for job, mn, _ in claimants}
        caps = {job.jid: mx for job, _, mx in claimants}
        _water_fill(targets, caps, budget - sum(targets.values()))
        return targets, admitted

    # -- passes ------------------------------------------------------------------

    def _shrink_toward_targets(
        self, ctx: SchedulerContext, targets: Dict[int, int]
    ) -> None:
        for job in ctx.running_jobs:
            if job.type is not JobType.MALLEABLE:
                continue
            if job.pending_reconfiguration is not None:
                continue
            target = targets.get(job.jid)
            if target is None or target >= len(job.assigned_nodes):
                continue
            ctx.reconfigure_job(job, job.assigned_nodes[:target])

    def _start_pending(
        self,
        ctx: SchedulerContext,
        targets: Dict[int, int],
        admitted: List[Job],
    ) -> None:
        admitted_ids = {job.jid for job in admitted}
        for job in ctx.pending_jobs:
            if job.jid not in admitted_ids:
                return  # strict FCFS: an unadmitted job blocks the rest
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    return  # its nodes are still being released
                ctx.start_job(job, free[: job.num_nodes])
            else:
                if job.min_nodes > len(free):
                    return
                size = min(targets.get(job.jid, job.max_nodes), len(free), job.max_nodes)
                size = max(size, job.min_nodes)
                ctx.start_job(job, free[:size])

    def _expand_toward_targets(
        self, ctx: SchedulerContext, targets: Dict[int, int]
    ) -> None:
        candidates = sorted(
            (
                job
                for job in ctx.running_jobs
                if job.type is JobType.MALLEABLE
                and job.pending_reconfiguration is None
                and targets.get(job.jid, 0) > len(job.assigned_nodes)
            ),
            key=lambda j: len(j.assigned_nodes),
        )
        for job in candidates:
            free = ctx.free_nodes()
            if not free:
                return
            grow = min(
                len(free), targets[job.jid] - len(job.assigned_nodes)
            )
            if grow <= 0:
                continue
            ctx.reconfigure_job(job, list(job.assigned_nodes) + free[:grow])

    def _handle_evolving(self, ctx: SchedulerContext, job: Job) -> None:
        _grant_evolving(ctx, job)


def _grant_evolving(ctx: SchedulerContext, job: Job) -> None:
    """Grant an evolving request with whatever is free, clamped to bounds."""
    desired = job.evolving_request
    if desired is None or job.pending_reconfiguration is not None:
        return
    current = len(job.assigned_nodes)
    desired = max(job.min_nodes, min(desired, job.max_nodes))
    if desired > current:
        free = ctx.free_nodes()
        grow = min(desired - current, len(free))
        if grow <= 0:
            return
        target = list(job.assigned_nodes) + free[:grow]
    elif desired < current:
        target = job.assigned_nodes[:desired]
    else:
        return
    ctx.reconfigure_job(job, target)


class RigidEasyBackfillScheduler(EasyBackfillingScheduler):
    """The real-workload study's baseline: EASY backfilling, no flexibility.

    Identical to :class:`EasyBackfillingScheduler` — every job starts at
    exactly its requested size and is never reconfigured, *even when the
    workload declares jobs moldable or malleable*.  Registered under its
    own name so the malleability study (``docs/STUDY.md``) can sweep type
    mixes against a scheduler that deliberately ignores them: any
    improvement the flexible strategies show over this baseline is
    attributable to exploiting malleability, not to a different queue
    policy.
    """

    name = "rigid-easy-backfill"


class PrefCommonPoolScheduler(Algorithm):
    """Preferred-size scheduling over a common pool of spare nodes.

    The ported ``pref_common_pool`` strategy family: every flexible job
    has a *preferred* size (its traced/requested ``num_nodes``); nodes
    beyond the sum of preferences form a common pool that running
    malleable jobs may borrow from, and must return as soon as queued
    jobs need them.

    Per invocation:

    1. **start** (strict FCFS): rigid jobs need their exact request;
       flexible jobs start once ``min_nodes`` are free, at up to their
       preferred size — never more, so the pool is not drained by
       starters;
    2. **reclaim**: if the queue head still cannot start, running
       malleable jobs above preference are shrunk back to it (the
       borrowed nodes return to the pool at the jobs' next scheduling
       points, which re-invokes the scheduler);
    3. **lend**: with an empty queue, free nodes are lent to running
       malleable jobs — below-preference jobs are topped up to
       preference first, then the pool spreads up to ``max_nodes``,
       smallest allocation first.
    """

    name = "pref-common-pool"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type is InvocationType.EVOLVING_REQUEST
            and invocation.job is not None
        ):
            _grant_evolving(ctx, invocation.job)
        self._start_pass(ctx)
        if ctx.pending_jobs:
            self._reclaim_pass(ctx)
        else:
            self._lend_pass(ctx)

    @staticmethod
    def _start_pass(ctx: SchedulerContext) -> None:
        for job in ctx.pending_jobs:
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    return  # strict FCFS: the head blocks the queue
                ctx.start_job(job, free[: job.num_nodes])
            else:
                if job.min_nodes > len(free):
                    return
                size = min(job.num_nodes, len(free))
                ctx.start_job(job, free[:size])

    @staticmethod
    def _reclaim_pass(ctx: SchedulerContext) -> None:
        for job in ctx.running_jobs:
            if job.type is not JobType.MALLEABLE:
                continue
            if job.pending_reconfiguration is not None:
                continue
            if len(job.assigned_nodes) > job.num_nodes:
                ctx.reconfigure_job(job, job.assigned_nodes[: job.num_nodes])

    @staticmethod
    def _lend_pass(ctx: SchedulerContext) -> None:
        candidates = sorted(
            (
                job
                for job in ctx.running_jobs
                if job.type is JobType.MALLEABLE
                and job.pending_reconfiguration is None
                and len(job.assigned_nodes) < job.max_nodes
            ),
            key=lambda j: (
                len(j.assigned_nodes) >= j.num_nodes,  # below preference first
                len(j.assigned_nodes),
                j.jid,
            ),
        )
        for job in candidates:
            free = ctx.free_nodes()
            if not free:
                return
            grow = min(len(free), job.max_nodes - len(job.assigned_nodes))
            if grow <= 0:
                continue
            ctx.reconfigure_job(job, list(job.assigned_nodes) + free[:grow])


class AverageStealAgreementScheduler(Algorithm):
    """Agreement-based grow/shrink negotiation around the average share.

    The ported ``average_steal_agreement`` strategy family: instead of a
    full equipartition solve, every malleable claimant *agrees* to meet
    at the machine average — ``budget // claimants``, clamped to its own
    ``[min_nodes, max_nodes]`` — where the budget is whatever is not
    held by rigid/moldable jobs or already-committed reconfigurations.
    Claimants are the running malleable jobs plus the FCFS-admittable
    queue prefix, so arrivals immediately lower the average everyone
    agreed to.

    Per invocation:

    1. **steal**: if the queue head cannot start, running malleable jobs
       above their agreed share are ordered to shrink to it (largest
       surplus first); the stolen nodes arrive at the victims' next
       scheduling points, re-invoking the scheduler to start the head;
    2. **start** (strict FCFS): rigid jobs at their request, flexible
       jobs at their agreed share (clamped by what is actually free);
    3. **grow**: leftover free nodes raise below-share malleable jobs up
       to — never past — their agreed share.
    """

    name = "average-steal-agreement"

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type is InvocationType.EVOLVING_REQUEST
            and invocation.job is not None
        ):
            _grant_evolving(ctx, invocation.job)
        targets, admitted = self._agreed_shares(ctx)
        self._steal_pass(ctx, targets)
        self._start_pass(ctx, targets, admitted)
        self._grow_pass(ctx, targets)

    @staticmethod
    def _agreed_shares(ctx: SchedulerContext) -> tuple[Dict[int, int], List[Job]]:
        """(jid → agreed share, admittable pending prefix)."""
        total = ctx.platform.num_nodes
        fixed = 0
        claimants: List[Job] = []
        for job in ctx.running_jobs:
            order = job.pending_reconfiguration
            if order is not None:
                fixed += len(order.target)  # committed, cannot renegotiate
            elif job.type is JobType.MALLEABLE:
                claimants.append(job)
            else:
                fixed += len(job.assigned_nodes)

        budget = total - fixed
        admitted: List[Job] = []
        committed = sum(job.min_nodes for job in claimants)
        for job in ctx.pending_jobs:
            need = job.num_nodes if job.is_rigid else job.min_nodes
            if committed + need > budget:
                break  # strict FCFS admission
            admitted.append(job)
            committed += need
            if not job.is_rigid:
                claimants.append(job)

        # Rigid admits hold their nodes outright; the rest is averaged.
        flexible_budget = budget - sum(
            job.num_nodes for job in admitted if job.is_rigid
        )
        targets: Dict[int, int] = {}
        if claimants:
            average = max(0, flexible_budget) // len(claimants)
            for job in claimants:
                targets[job.jid] = max(job.min_nodes, min(average, job.max_nodes))
        for job in admitted:
            if job.is_rigid:
                targets[job.jid] = job.num_nodes
        return targets, admitted

    @staticmethod
    def _steal_pass(ctx: SchedulerContext, targets: Dict[int, int]) -> None:
        pending = ctx.pending_jobs
        if not pending:
            return
        head = pending[0]
        need = head.num_nodes if head.is_rigid else head.min_nodes
        deficit = need - ctx.num_free_nodes()
        if deficit <= 0:
            return
        victims = sorted(
            (
                job
                for job in ctx.running_jobs
                if job.type is JobType.MALLEABLE
                and job.pending_reconfiguration is None
                and len(job.assigned_nodes) > targets.get(job.jid, job.max_nodes)
            ),
            key=lambda j: (
                targets.get(j.jid, 0) - len(j.assigned_nodes),  # largest surplus
                j.jid,
            ),
        )
        for job in victims:
            if deficit <= 0:
                return
            surplus = len(job.assigned_nodes) - targets[job.jid]
            ctx.reconfigure_job(job, job.assigned_nodes[: targets[job.jid]])
            deficit -= surplus

    @staticmethod
    def _start_pass(
        ctx: SchedulerContext, targets: Dict[int, int], admitted: List[Job]
    ) -> None:
        admitted_ids = {job.jid for job in admitted}
        for job in ctx.pending_jobs:
            if job.jid not in admitted_ids:
                return  # strict FCFS: an unadmitted job blocks the rest
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    return  # stolen nodes are still being released
                ctx.start_job(job, free[: job.num_nodes])
            else:
                if job.min_nodes > len(free):
                    return
                size = min(targets.get(job.jid, job.num_nodes), len(free), job.max_nodes)
                size = max(size, job.min_nodes)
                ctx.start_job(job, free[:size])

    @staticmethod
    def _grow_pass(ctx: SchedulerContext, targets: Dict[int, int]) -> None:
        candidates = sorted(
            (
                job
                for job in ctx.running_jobs
                if job.type is JobType.MALLEABLE
                and job.pending_reconfiguration is None
                and targets.get(job.jid, 0) > len(job.assigned_nodes)
            ),
            key=lambda j: (len(j.assigned_nodes), j.jid),
        )
        for job in candidates:
            free = ctx.free_nodes()
            if not free:
                return
            grow = min(len(free), targets[job.jid] - len(job.assigned_nodes))
            if grow <= 0:
                continue
            ctx.reconfigure_job(job, list(job.assigned_nodes) + free[:grow])


class HybridCorridorScheduler(Algorithm):
    """Hybrid batch/on-demand scheduling inside a system power corridor.

    The shipped policy for the hybrid job-class model (``docs/HYBRID.md``):

    * **On-demand admission** — pending :attr:`~repro.job.JobClass.ON_DEMAND`
      jobs are admitted in submit order.  When one cannot start — not
      enough free nodes, or starting it would push aggregate draw past the
      corridor — running *batch*-class jobs are preempted (killed with
      reason ``"preempted"``; the batch system requeues them, resuming
      from their last checkpoint when ``checkpoint_restart`` is on).
      Victims are the cheapest first: smallest allocation, then
      latest-started (least work lost), and are only killed when together
      they cover both the node deficit *and* the power deficit — otherwise
      no work is wasted.  Killed victims release their nodes at this same
      simulated instant, so the completion re-invocation admits the
      on-demand job immediately.
    * **Batch pass** — strict FCFS over batch-class jobs, additionally
      gated on corridor headroom: the queue head blocks until both its
      nodes are free and its idle→peak start cost fits under the
      corridor.  Deliberately no backfilling: strict FCFS keeps the
      policy free of scheduling anomalies, so widening the corridor can
      never lengthen the schedule (the ``corridor-relax`` oracle relies
      on this monotonicity).
    * **Evolving requests** — grants are clamped so the extra draw of the
      added nodes fits the corridor headroom; blocking requests that
      cannot be granted at all are denied so the requester resumes rather
      than deadlocking.
    """

    name = "hybrid-corridor"
    respects_power_corridor = True

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type is InvocationType.EVOLVING_REQUEST
            and invocation.job is not None
        ):
            self._resolve_evolving(ctx, invocation.job)
        if self._ondemand_pass(ctx):
            # An on-demand job is still waiting (usually for its preempted
            # victims' nodes, released at this same instant).  Starting
            # batch jobs now would hand it exactly those nodes and preempt
            # them right back — an admission livelock — so batch starts
            # hold until every on-demand job is placed.
            return
        self._batch_pass(ctx)

    # -- on-demand admission ------------------------------------------------

    def _ondemand_pass(self, ctx: SchedulerContext) -> bool:
        """Admit pending on-demand jobs; True while any is still waiting."""
        waiting = False
        for job in ctx.pending_jobs:
            if job.job_class is not JobClass.ON_DEMAND:
                continue
            need = job.num_nodes  # == _start_size(job)
            free = ctx.free_nodes()
            if need <= len(free):
                chosen = free[:need]
                if ctx.start_power_cost(chosen) <= ctx.power_headroom():
                    ctx.start_job(job, chosen)
                    continue
            waiting = True
            if self._preempt_for(ctx, job):
                # Victims finish at this instant; the resulting completion
                # invocation re-enters this pass and starts the job.
                break
        return waiting

    @staticmethod
    def _preempt_for(ctx: SchedulerContext, job: Job) -> bool:
        """Kill the cheapest batch victims that admit ``job``; False if none can."""
        need = job.num_nodes
        node_deficit = need - ctx.num_free_nodes()
        # Worst-case start cost: the job may land on any nodes once the
        # victims release, so budget for the `need` hungriest ones.
        power_deficit = ctx.platform.max_start_power(need) - ctx.power_headroom()
        victims = sorted(
            (
                j
                for j in ctx.running_jobs
                if j.job_class is JobClass.BATCH
                and j.pending_reconfiguration is None
                and j.evolving_wait_event is None
            ),
            key=lambda j: (len(j.assigned_nodes), -(j.start_time or 0.0), j.jid),
        )
        chosen: List[Job] = []
        freeable = 0
        reclaimed = 0.0
        for victim in victims:
            if freeable >= node_deficit and reclaimed >= power_deficit:
                break
            chosen.append(victim)
            freeable += len(victim.assigned_nodes)
            reclaimed += sum(
                n.peak_watts - n.idle_watts for n in victim.assigned_nodes
            )
        if freeable < node_deficit or reclaimed < power_deficit:
            return False  # preemption cannot admit the job; do not waste work
        for victim in chosen:
            ctx.kill_job(victim, reason="preempted")
        return True

    # -- batch pass ---------------------------------------------------------

    @staticmethod
    def _batch_pass(ctx: SchedulerContext) -> None:
        for job in ctx.pending_jobs:
            if job.job_class is JobClass.ON_DEMAND:
                continue  # admission pass owns these; they never block batch
            need = job.num_nodes  # == _start_size(job)
            free = ctx.free_nodes()
            if need > len(free):
                return  # strict FCFS: later batch jobs must wait
            chosen = free[:need]
            if ctx.start_power_cost(chosen) > ctx.power_headroom():
                return  # the head blocks on power exactly as it does on nodes
            ctx.start_job(job, chosen)

    # -- evolving requests --------------------------------------------------

    @staticmethod
    def _resolve_evolving(ctx: SchedulerContext, job: Job) -> None:
        desired = job.evolving_request
        if desired is None or job.pending_reconfiguration is not None:
            return
        blocking = job.evolving_wait_event is not None
        desired = max(job.min_nodes, min(desired, job.max_nodes))
        current = len(job.assigned_nodes)
        if desired > current:
            free = ctx.free_nodes()
            grow = min(desired - current, len(free))
            # Clamp the grant until its idle→peak cost fits the corridor.
            while grow > 0 and ctx.start_power_cost(free[:grow]) > ctx.power_headroom():
                grow -= 1
            if grow <= 0:
                if blocking:
                    ctx.deny_evolving_request(job)
                return
            ctx.reconfigure_job(job, list(job.assigned_nodes) + free[:grow])
        elif desired < current:
            ctx.reconfigure_job(job, job.assigned_nodes[:desired])
        elif blocking:
            ctx.deny_evolving_request(job)


class RandomDecisionScheduler(Algorithm):
    """Adversarial scheduler: random-but-valid decisions at every invocation.

    Built for the fuzzing harness (:mod:`repro.fuzz`): the engine must
    stay correct under *any* legal decision sequence, so this policy draws
    starts, expansions, shrinks, arbitrary node migrations, evolving
    grants/denials, kills and preemption-requeues from a seeded RNG.  Two
    properties keep it usable as a differential-oracle subject:

    * **determinism** — every choice comes from one ``random.Random(seed)``
      stream and depends only on the invocation sequence and the queue /
      machine state, so identical engine behaviour yields identical
      decisions (a fresh instance is built per run via ``random:<seed>``);
    * **progress** — if nothing is running and nothing was started this
      invocation, the first pending job that fits is force-started, so
      randomness never starves the queue into a stall.

    Preemption ping-pong is bounded: only first-attempt jobs are killed
    with the auto-requeue reason ``"preempted"``; requeued attempts are
    killed permanently (reason ``"random-kill"``).
    """

    name = "random"

    def __init__(self, *, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    @classmethod
    def from_param(cls, param: str) -> "RandomDecisionScheduler":
        try:
            seed = int(param)
        except ValueError:
            raise SchedulerError(
                f"random scheduler parameter must be an integer seed, got {param!r}"
            ) from None
        return cls(seed=seed)

    def capture_state(self) -> dict:
        version, internal, gauss_next = self.rng.getstate()
        return {"rng": [version, list(internal), gauss_next]}

    def restore_state(self, state: "dict | None") -> None:
        if state is None:
            return
        version, internal, gauss_next = state["rng"]
        self.rng.setstate((version, tuple(internal), gauss_next))

    def schedule(self, ctx: SchedulerContext, invocation: Invocation) -> None:
        if (
            invocation.type is InvocationType.EVOLVING_REQUEST
            and invocation.job is not None
        ):
            self._resolve_evolving(ctx, invocation.job)
        started = self._start_pass(ctx)
        self._reconfigure_pass(ctx)
        self._kill_pass(ctx)
        if not started and not ctx.running_jobs:
            self._force_progress(ctx)

    # -- passes ------------------------------------------------------------

    def _start_pass(self, ctx: SchedulerContext) -> bool:
        rng = self.rng
        started = False
        pending = ctx.pending_jobs
        rng.shuffle(pending)
        for job in pending:
            if rng.random() >= 0.7:
                continue
            free = ctx.free_nodes()
            if job.is_rigid:
                if job.num_nodes > len(free):
                    continue
                size = job.num_nodes
            else:
                if job.min_nodes > len(free):
                    continue
                size = rng.randint(job.min_nodes, min(job.max_nodes, len(free)))
            ctx.start_job(job, rng.sample(free, size))
            started = True
        return started

    def _reconfigure_pass(self, ctx: SchedulerContext) -> None:
        rng = self.rng
        for job in ctx.running_jobs:
            if job.type is not JobType.MALLEABLE:
                continue
            if job.pending_reconfiguration is not None:
                continue
            if rng.random() >= 0.3:
                continue
            free = ctx.free_nodes()
            current = list(job.assigned_nodes)
            size = rng.randint(job.min_nodes, min(job.max_nodes, len(current) + len(free)))
            # Arbitrary migration: any mix of kept and newly grabbed nodes
            # of the chosen size exercises the redistribution cost model.
            keep = rng.randint(max(0, size - len(free)), min(size, len(current)))
            target = rng.sample(current, keep) + rng.sample(free, size - keep)
            if {n.index for n in target} == {n.index for n in current}:
                continue  # no-op order; nothing to reconfigure
            ctx.reconfigure_job(job, target)

    def _kill_pass(self, ctx: SchedulerContext) -> None:
        rng = self.rng
        for job in ctx.running_jobs:
            if job.pending_reconfiguration is not None:
                continue
            if job.evolving_wait_event is not None:
                continue
            if rng.random() < 0.02:
                reason = "preempted" if job.attempt == 1 else "random-kill"
                ctx.kill_job(job, reason=reason)
        for job in ctx.pending_jobs:
            if rng.random() < 0.01:
                ctx.kill_job(job, reason="random-kill")

    def _force_progress(self, ctx: SchedulerContext) -> None:
        for job in ctx.pending_jobs:
            free = ctx.free_nodes()
            need = job.num_nodes if job.is_rigid else job.min_nodes
            if need <= len(free):
                size = need if job.is_rigid else min(job.max_nodes, len(free))
                ctx.start_job(job, free[:size])
                return

    def _resolve_evolving(self, ctx: SchedulerContext, job: Job) -> None:
        """Grant (fully or partially), deny, or ignore an evolving request.

        Blocking requests are always resolved — an ignored blocking request
        suspends the job until another completion retries it, which turns
        into a stall on the last job; randomness must not manufacture
        deadlocks the engine is documented not to have.
        """
        rng = self.rng
        desired = job.evolving_request
        if desired is None or job.pending_reconfiguration is not None:
            return
        blocking = job.evolving_wait_event is not None
        desired = max(job.min_nodes, min(desired, job.max_nodes))
        current = len(job.assigned_nodes)
        roll = rng.random()
        if roll < 0.2 or desired == current:
            if blocking or desired == current:
                ctx.deny_evolving_request(job)
            return
        if desired > current:
            free = ctx.free_nodes()
            grow = min(desired - current, len(free))
            if grow <= 0:
                if blocking:
                    ctx.deny_evolving_request(job)
                return
            if roll < 0.45 and grow > 1:
                grow = rng.randint(1, grow - 1)  # partial grant
            target = list(job.assigned_nodes) + rng.sample(free, grow)
        else:
            target = rng.sample(list(job.assigned_nodes), desired)
        ctx.reconfigure_job(job, target)


_REGISTRY: Dict[str, Type[Algorithm]] = {
    cls.name: cls
    for cls in (
        FcfsScheduler,
        EasyBackfillingScheduler,
        SjfBackfillingScheduler,
        UserFairShareScheduler,
        PreemptivePriorityScheduler,
        ConservativeBackfillingScheduler,
        MoldableScheduler,
        AdaptiveMoldableScheduler,
        MalleableScheduler,
        RigidEasyBackfillScheduler,
        PrefCommonPoolScheduler,
        AverageStealAgreementScheduler,
        HybridCorridorScheduler,
        RandomDecisionScheduler,
    )
}


def get_algorithm(name: str) -> Algorithm:
    """Instantiate a built-in algorithm by registry name.

    ``name`` may carry a parameter after a colon (``random:42``), handed
    to the class's :meth:`~repro.scheduler.base.Algorithm.from_param`.
    """
    base, sep, param = name.partition(":")
    try:
        cls = _REGISTRY[base]
    except KeyError:
        raise SchedulerError(
            f"Unknown algorithm {base!r}; available: {sorted(_REGISTRY)}"
        ) from None
    if sep:
        return cls.from_param(param)
    return cls()
