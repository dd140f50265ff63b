"""Restore a :class:`~repro.replay.Snapshot` into a live simulation.

The static object graph (platform, base workload, algorithm, batch
wiring) is rebuilt from the embedded scenario spec with
``Simulation.from_spec(..., start_processes=False)``; captured state is
then overlaid module by module, and every suspended process is rebuilt by
*deterministic re-entry*: a purpose-built resume generator is advanced to
its first wait via :meth:`repro.des.Process.reenter`, subscribing to the
same (rebuilt) events the original generator was waiting on.

Re-entry allocates no event ids: timeouts are rebuilt raw (bypassing the
scheduling constructor) and linked into the queue by the environment's
restore, which renumbers all entries canonically.  A resumed run is
therefore byte-identical to the cold run from the boundary onward.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.des import Process
from repro.des.events import Event, Timeout
from repro.replay.snapshot import ReplayError, SidRegistry, Snapshot
from repro.sharing import Activity, Fanout


def rebuild_timeout(env, delay: float, value: Any = None) -> Timeout:
    """A Timeout with the given fields that was *not* scheduled.

    The real constructor calls ``env.schedule`` (burning an event id and
    pushing a fresh queue entry); restored timeouts get their queue entry
    from the environment's snapshot instead.
    """
    timer = Timeout.__new__(Timeout)
    timer.env = env
    timer.callbacks = []
    timer._value = value
    timer._ok = True
    timer._defused = False
    timer.delay = delay
    return timer


def rebuild_finished_activity(env, rec: dict) -> Activity:
    """A placeholder for an activity that completed before the snapshot
    but is still a member of the fan-out an executor waits for.

    Behaviorally inert: its done event is already processed (the restored
    condition counts it immediately), and ``model.cancel`` on it no-ops
    because it belongs to no model.
    """
    payload = rec["payload"]
    done = Event(env)
    act = Activity._raw(
        seq=rec["seq"],
        work=rec["work"],
        remaining=0.0,
        usages={},
        payload=tuple(payload) if isinstance(payload, list) else payload,
        rate=0.0,
        done=done,
        started_at=rec["started_at"],
        finished_at=rec["finished_at"],
        model=None,
    )
    done._ok = True
    done._value = act
    done.callbacks = None  # processed
    return act


def rebuild_processed_event(env) -> Event:
    """A bare already-processed Event (dead parallel-branch placeholder)."""
    event = Event(env)
    event._ok = True
    event._value = None
    event.callbacks = None
    return event


class RestoreContext:
    """Helpers the batch system's ``restore_state`` delegates to."""

    def __init__(self, env, registry: SidRegistry) -> None:
        self.env = env
        self.registry = registry

    def rebuild_timeout(self, sid: str, delay: float) -> Timeout:
        timer = rebuild_timeout(self.env, delay)
        self.registry.claim(sid, timer)
        return timer

    def resolve_executor_wait(self, batch, executor, cursor: dict, prefix: str) -> dict:
        """Turn a captured executor cursor into live wait objects.

        For parallel waits this re-enters the live branch processes (their
        resume generators subscribe to their own rebuilt waits) so the
        parent's all-of can be built over the branch events in task order.
        """
        kind = cursor["wait_kind"]
        if kind == "acts":
            outstanding = cursor["outstanding"]
            if isinstance(outstanding, dict):
                # An intact cohort, rebuilt memberless by the model.
                return {"fanout": self.registry.obj_of(outstanding["fanout"])}
            acts = []
            for rec in outstanding:
                if "ref" in rec:
                    acts.append(self.registry.obj_of(rec["ref"]))
                else:
                    acts.append(rebuild_finished_activity(self.env, rec["done"]))
            return {"fanout": Fanout(self.env, acts)}
        if kind == "delay":
            timer = self.rebuild_timeout(
                cursor["delay"]["sid"], cursor["delay"]["delay"]
            )
            return {"timer": timer}
        if kind == "evolving":
            return {}
        if kind == "parallel":
            from repro.engine import JobExecutor

            job = executor.job
            phase = job.application.phases[cursor["phase_idx"]]
            branch_events: List[Event] = []
            branch_procs: List[Process] = []
            branch_slots: List[tuple] = []
            for k, rec in enumerate(cursor["branches"]):
                if rec["alive"]:
                    branch_exec = JobExecutor(
                        self.env, batch.platform, batch.model, job, batch
                    )
                    branch_cursor = rec["state"]
                    branch_resolved = self.resolve_executor_wait(
                        batch, branch_exec, branch_cursor, f"{prefix}.b{k}"
                    )
                    task = phase.tasks[branch_cursor["task_idx"]]
                    proc = Process.reenter(
                        self.env,
                        branch_exec.resume_branch(branch_cursor, branch_resolved),
                        f"{job.name}/{phase.name}/{task.name}",
                    )
                    branch_events.append(proc)
                    branch_procs.append(proc)
                    branch_slots.append((proc, branch_exec))
                else:
                    event = rebuild_processed_event(self.env)
                    branch_events.append(event)
                    branch_slots.append((event, None))
            return {
                "branch_events": branch_events,
                "branch_procs": branch_procs,
                "branch_slots": branch_slots,
            }
        raise ReplayError(f"unknown wait kind {kind!r} in snapshot")


def restore_simulation(snapshot: Snapshot):
    """Rebuild a live simulation continuing bit-for-bit from ``snapshot``."""
    from repro.batch import Simulation

    state = snapshot.state
    # The snapshot names its engine: a run resumes on the one that wrote it.
    sim = Simulation.from_spec(
        snapshot.spec, start_processes=False, reference=state["model"]["reference"]
    )
    batch = sim.batch
    env = sim.env
    registry = SidRegistry()

    # 1. Jobs — base jobs come from the spec; requeue clones are replayed
    #    through the same clone call the live run used (the source's state
    #    is restored first, so trimmed applications come out identical).
    jobs_by_jid = {job.jid: job for job in batch.jobs}
    # Every node is restored below, so build them all now: jobs then pick
    # theirs out of a plain list.
    nodes = list(batch.platform.nodes)
    for rec in state["jobs"]:
        jid = rec["jid"]
        job = jobs_by_jid.get(jid)
        if job is None:
            source = jobs_by_jid.get(rec.get("source_jid"))
            if source is None:
                raise ReplayError(
                    f"snapshot references job {jid} absent from the spec "
                    "workload and without a requeue source"
                )
            job = source.clone_for_requeue(
                jid,
                submit_time=rec["submit_time"],
                resume=batch.checkpoint_restart,
            )
            batch.jobs.append(job)
            jobs_by_jid[jid] = job
        job.restore_state(rec["state"], nodes)

    # 2. Platform node/storage state (needs restored jobs for assignments).
    batch.platform.restore_state(state["platform"], jobs_by_jid)

    # 3. Fair-share model — claims activity and wake sids.
    resources = batch.platform.shared_resources()
    batch.model.restore_state(state["model"], registry, resources)

    # 4. Batch system — re-enters every process; claims timer sids.
    ctx = RestoreContext(env, registry)
    batch.restore_state(state["batch"], registry, ctx)

    # 5. Environment queue — links every claimed sid back into the heap
    #    and renumbers entries canonically.
    env.restore_state(state["env"], registry)

    # 6. Monitor series and scheduler-internal state.
    batch.monitor.restore_state(state["monitor"], jobs_by_jid)
    batch.algorithm.restore_state(state.get("scheduler"))

    return sim
