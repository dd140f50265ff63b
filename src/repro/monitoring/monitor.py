"""Implementation of the simulation monitor."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import isfinite, nan
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.des import Environment
from repro.job import Job
from repro.monitoring.power import PowerMeter
from repro.monitoring.solver_stats import SolverStats


@dataclass
class AllocationSegment:
    """One span of a job's life on a fixed set of nodes."""

    start: float
    end: Optional[float]
    node_indices: Tuple[int, ...]


@dataclass
class SummaryStatistics:
    """Aggregate metrics over one simulation run."""

    makespan: float
    mean_wait: float
    median_wait: float
    max_wait: float
    mean_turnaround: float
    #: 95th-percentile turnaround (response time) across finished jobs —
    #: the tail metric the malleability study tables report next to the
    #: mean (numpy-style linear interpolation between order statistics).
    p95_turnaround: float
    mean_bounded_slowdown: float
    mean_utilization: float
    completed_jobs: int
    killed_jobs: int
    total_reconfigurations: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "makespan": self.makespan,
            "mean_wait": self.mean_wait,
            "median_wait": self.median_wait,
            "max_wait": self.max_wait,
            "mean_turnaround": self.mean_turnaround,
            "p95_turnaround": self.p95_turnaround,
            "mean_bounded_slowdown": self.mean_bounded_slowdown,
            "mean_utilization": self.mean_utilization,
            "completed_jobs": self.completed_jobs,
            "killed_jobs": self.killed_jobs,
            "total_reconfigurations": self.total_reconfigurations,
        }


def _quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method) of ``values``."""
    if not values:
        return nan
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


def _json_safe(value: Any) -> Any:
    """Collapse non-finite floats to ``None`` for strict-JSON payloads."""
    if isinstance(value, float) and not isfinite(value):
        return None
    return value


class Monitor:
    """Records simulation events and derives statistics.

    The batch system calls the ``on_*`` hooks; experiments read the series
    and summaries after :meth:`finalize`.
    """

    def __init__(self, env: Environment, num_nodes: int) -> None:
        self.env = env
        self.num_nodes = num_nodes
        #: (time, allocated node count) step function, one point per change.
        self.allocation_series: List[Tuple[float, int]] = [(0.0, 0)]
        #: (time, queued job count) step function.
        self.queue_series: List[Tuple[float, int]] = [(0.0, 0)]
        #: Chronological event log: (time, kind, job id, detail).
        self.events: List[Tuple[float, str, int, str]] = []
        #: Node fault log: (time, "fail"|"repair", node index).
        self.node_events: List[Tuple[float, str, int]] = []
        self._segments: Dict[int, List[AllocationSegment]] = {}
        self._allocated = 0
        self._queued = 0
        self._jobs: Dict[int, Job] = {}
        self._finalized_at: Optional[float] = None
        #: Fair-share solver counters, attached at the end of a run.
        self.solver: Optional[SolverStats] = None
        #: Expression-wrapper counters for this run (an
        #: :class:`~repro.expressions.ExpressionStats` delta), attached at
        #: the end of a run.  Deliberately *not* part of ``run_record()``:
        #: the counts depend on what the process-wide intern cache already
        #: holds, and campaign fingerprints must not.
        self.expressions: Optional[Any] = None
        #: Energy meter, attached by :meth:`attach_power` when the
        #: platform declares per-node draw; None keeps every energy field
        #: out of ``run_record()`` so powerless goldens stay byte-stable.
        self.power: Optional[PowerMeter] = None

    # -- hooks ------------------------------------------------------------

    def on_submit(self, job: Job) -> None:
        self._jobs[job.jid] = job
        self._queued += 1
        self._push_queue()
        self._log(job, "submit", "")

    def set_allocated(self, count: int) -> None:
        """Record the current number of allocated (incl. reserved) nodes.

        Called by the batch system after every node-state change; this keeps
        the utilization series truthful even for nodes that are *reserved*
        for a pending expansion but not yet used by the job.
        """
        if count != self._allocated:
            self._allocated = count
            self._push_allocation()

    def on_start(self, job: Job) -> None:
        self._queued -= 1
        self._push_queue()
        self._segments.setdefault(job.jid, []).append(
            AllocationSegment(
                start=self.env.now,
                end=None,
                node_indices=tuple(n.index for n in job.assigned_nodes),
            )
        )
        self._log(job, "start", f"nodes={len(job.assigned_nodes)}")

    def on_reconfigure(self, job: Job, old_count: int, new_count: int) -> None:
        segments = self._segments.setdefault(job.jid, [])
        if segments and segments[-1].end is None:
            segments[-1].end = self.env.now
        segments.append(
            AllocationSegment(
                start=self.env.now,
                end=None,
                node_indices=tuple(n.index for n in job.assigned_nodes),
            )
        )
        self._log(job, "reconfigure", f"{old_count}->{new_count}")

    def on_end(self, job: Job) -> None:
        segments = self._segments.get(job.jid, [])
        if segments and segments[-1].end is None:
            segments[-1].end = self.env.now
        kind = "complete" if job.state.value == "completed" else "kill"
        self._log(job, kind, job.kill_reason or "")

    def on_node_failure(self, node_index: int) -> None:
        """Record a node fault (failure injection)."""
        self.node_events.append((self.env.now, "fail", node_index))

    def on_node_repair(self, node_index: int) -> None:
        """Record a node returning to service."""
        self.node_events.append((self.env.now, "repair", node_index))

    def on_queue_drop(self, job: Job) -> None:
        """A pending job left the queue without starting (killed while queued)."""
        self._queued -= 1
        self._push_queue()
        self._log(job, "kill", job.kill_reason or "")

    def attach_power(self, platform) -> None:
        """Meter the platform's power when it declares node draw.

        Registers a :class:`PowerMeter` as the platform's transition
        listener; a powerless platform leaves :attr:`power` as ``None``
        and the monitor's output byte-identical to pre-power builds.
        """
        if platform.power_enabled:
            self.power = PowerMeter(self.env, platform)

    def finalize(self) -> None:
        """Close the series at the current time (end of simulation)."""
        self._finalized_at = self.env.now
        self.allocation_series.append((self.env.now, self._allocated))
        self.queue_series.append((self.env.now, self._queued))
        if self.power is not None:
            self.power.finalize(self.env.now)

    def attach_solver_stats(self, model: Any) -> None:
        """Snapshot a :class:`~repro.sharing.FairShareModel`'s perf counters.

        Called by :meth:`repro.batch.Simulation.run` so experiments can read
        per-event solve scope, component count/size histogram, and cumulative
        solver time from :attr:`solver` after the run.
        """
        self.solver = SolverStats.from_model(model)

    def attach_expression_stats(self, stats: Any) -> None:
        """Attach this run's expression-wrapper counters.

        ``stats`` is the per-run delta of the process-wide
        :data:`repro.expressions.STATS` (evaluations, memo/constant hits),
        computed by :meth:`repro.batch.Simulation.run`.
        """
        self.expressions = stats

    # -- snapshot/restore ------------------------------------------------------

    def capture_state(self) -> dict:
        """Snapshot the recorded series and counters mid-run.

        Jobs are stored as jid references in registration (insertion)
        order; solver/expression stats are absent because they are only
        attached at the very end of a run — capturing mid-run asserts so.
        """
        if self._finalized_at is not None:
            raise RuntimeError("Cannot snapshot a finalized monitor")
        if self.solver is not None or self.expressions is not None:
            raise RuntimeError(
                "Cannot snapshot: end-of-run stats already attached"
            )
        return {
            "allocation_series": [list(p) for p in self.allocation_series],
            "queue_series": [list(p) for p in self.queue_series],
            "events": [list(e) for e in self.events],
            "node_events": [list(e) for e in self.node_events],
            "segments": [
                [
                    jid,
                    [
                        [seg.start, seg.end, list(seg.node_indices)]
                        for seg in segments
                    ],
                ]
                for jid, segments in self._segments.items()
            ],
            "allocated": self._allocated,
            "queued": self._queued,
            "jobs": list(self._jobs),
            "power": self.power.capture_state() if self.power is not None else None,
        }

    def restore_state(self, state: dict, jobs_by_jid: Dict[int, Job]) -> None:
        """Rebuild the monitor's series from a snapshot."""
        self.allocation_series = [tuple(p) for p in state["allocation_series"]]
        self.queue_series = [tuple(p) for p in state["queue_series"]]
        self.events = [tuple(e) for e in state["events"]]
        self.node_events = [tuple(e) for e in state["node_events"]]
        self._segments = {
            jid: [
                AllocationSegment(
                    start=start, end=end, node_indices=tuple(indices)
                )
                for start, end, indices in segments
            ]
            for jid, segments in state["segments"]
        }
        self._allocated = state["allocated"]
        self._queued = state["queued"]
        self._jobs = {jid: jobs_by_jid[jid] for jid in state["jobs"]}
        self._finalized_at = None
        if self.power is not None and state.get("power") is not None:
            self.power.restore_state(state["power"])

    # -- internals ------------------------------------------------------------

    def _push_allocation(self) -> None:
        self.allocation_series.append((self.env.now, self._allocated))

    def _push_queue(self) -> None:
        self.queue_series.append((self.env.now, self._queued))

    def _log(self, job: Job, kind: str, detail: str) -> None:
        self.events.append((self.env.now, kind, job.jid, detail))

    # -- derived quantities ---------------------------------------------------

    @property
    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def segments(self, jid: int) -> List[AllocationSegment]:
        """Allocation history of one job (for Gantt charts)."""
        return list(self._segments.get(jid, []))

    def makespan(self) -> float:
        """Last job end time (0 if nothing ran)."""
        ends = [j.end_time for j in self._jobs.values() if j.end_time is not None]
        return max(ends) if ends else 0.0

    def utilization_integral(self, until: Optional[float] = None) -> float:
        """Node-seconds allocated in [0, until] (default: makespan)."""
        horizon = until if until is not None else self.makespan()
        if horizon <= 0:
            return 0.0
        total = 0.0
        series = self.allocation_series
        for (t0, level), (t1, _) in zip(series, series[1:]):
            lo, hi = max(0.0, t0), min(horizon, t1)
            if hi > lo:
                total += level * (hi - lo)
        # Extend the last level to the horizon if the series ends early.
        last_t, last_level = series[-1]
        if last_t < horizon:
            total += last_level * (horizon - last_t)
        return total

    def mean_utilization(self, until: Optional[float] = None) -> float:
        """Average fraction of nodes allocated over [0, horizon]."""
        horizon = until if until is not None else self.makespan()
        if horizon <= 0:
            return 0.0
        return self.utilization_integral(horizon) / (self.num_nodes * horizon)

    def utilization_timeline(self) -> List[Tuple[float, float]]:
        """(time, fraction allocated) step series for plotting (E1)."""
        return [(t, count / self.num_nodes) for t, count in self.allocation_series]

    def job_records(self) -> List[Dict[str, Any]]:
        """One flat record per job, ready for CSV/JSON export."""
        records = []
        for job in sorted(self._jobs.values(), key=lambda j: j.jid):
            records.append(
                {
                    "jid": job.jid,
                    "name": job.name,
                    "type": job.type.value,
                    "state": job.state.value,
                    "submit_time": job.submit_time,
                    "start_time": job.start_time,
                    "end_time": job.end_time,
                    "wait_time": job.wait_time,
                    "runtime": job.runtime,
                    "turnaround": job.turnaround,
                    "bounded_slowdown": job.bounded_slowdown(),
                    "nodes": len(job.assigned_nodes),
                    "reconfigurations": job.reconfigurations_applied,
                    "scheduling_points": job.scheduling_points_seen,
                    "kill_reason": job.kill_reason,
                }
            )
        return records

    def summary(self) -> SummaryStatistics:
        """Aggregate statistics over all finished jobs."""
        finished = [j for j in self._jobs.values() if j.finished]
        completed = [j for j in finished if j.state.value == "completed"]
        killed = [j for j in finished if j.state.value == "killed"]
        waits = [j.wait_time for j in finished if j.wait_time is not None]
        turnarounds = [j.turnaround for j in finished if j.turnaround is not None]
        slowdowns = [
            s for j in finished if (s := j.bounded_slowdown()) is not None
        ]
        return SummaryStatistics(
            makespan=self.makespan(),
            mean_wait=mean(waits) if waits else nan,
            median_wait=median(waits) if waits else nan,
            max_wait=max(waits) if waits else nan,
            mean_turnaround=mean(turnarounds) if turnarounds else nan,
            p95_turnaround=_quantile(turnarounds, 0.95),
            mean_bounded_slowdown=mean(slowdowns) if slowdowns else nan,
            mean_utilization=self.mean_utilization(),
            completed_jobs=len(completed),
            killed_jobs=len(killed),
            total_reconfigurations=sum(
                j.reconfigurations_applied for j in self._jobs.values()
            ),
        )

    def run_record(self) -> Dict[str, Any]:
        """Deterministic, JSON-safe record of this run for campaign reports.

        Contains only quantities that are a pure function of the scenario
        spec — summary statistics, event and solver *counts* — never wall
        clock.  Two runs of the same spec and seed must serialise this
        byte-identically (that invariant is what the campaign result cache
        and the CI regression gate are built on).  Non-finite floats (an
        all-killed workload has ``nan`` waits) become ``None`` so the
        record round-trips through strict JSON.
        """
        summary = {
            key: _json_safe(value) for key, value in self.summary().as_dict().items()
        }
        record: Dict[str, Any] = {
            "summary": summary,
            "processed_events": self.env.processed_events,
            "num_jobs": len(self._jobs),
        }
        if self.power is not None:
            energy = self.power.energy_record()
            record["energy"] = {
                "total_joules": _json_safe(energy["total_joules"]),
                "max_power_watts": _json_safe(energy["max_power_watts"]),
                "corridor_watts": _json_safe(energy["corridor_watts"]),
                "node_joules": [_json_safe(e) for e in energy["node_joules"]],
            }
        if self.solver is not None:
            record["solver"] = {
                "resolves": self.solver.resolves,
                "solve_events": self.solver.solve_events,
                "merges": self.solver.merges,
                "splits": self.solver.splits,
            }
        return record

    def node_busy_seconds(self) -> Dict[int, float]:
        """Seconds each node spent in committed allocations.

        Derived from allocation segments; reservation windows (nodes held
        for a pending expansion) are not attributed to any node here.
        """
        horizon = self.makespan()
        busy: Dict[int, float] = {}
        for segments in self._segments.values():
            for seg in segments:
                end = seg.end if seg.end is not None else horizon
                span = max(0.0, end - seg.start)
                for idx in seg.node_indices:
                    busy[idx] = busy.get(idx, 0.0) + span
        return dict(sorted(busy.items()))

    def node_utilizations(self, until: Optional[float] = None) -> Dict[int, float]:
        """Busy fraction per node over [0, horizon] (imbalance analysis)."""
        horizon = until if until is not None else self.makespan()
        if horizon <= 0:
            return {}
        return {
            idx: seconds / horizon
            for idx, seconds in self.node_busy_seconds().items()
        }

    def summary_by(self, key) -> Dict[str, SummaryStatistics]:
        """Aggregate statistics per group, e.g. ``summary_by(lambda j: j.user)``.

        Utilization fields are machine-wide and repeated in each group.
        """
        groups: Dict[str, List[Job]] = {}
        for job in self._jobs.values():
            label = key(job)
            # Jobs without the attribute (e.g. user=None on synthetic
            # workloads) group under a printable sentinel; a raw None key
            # would make the sorted() below raise TypeError against str.
            groups.setdefault("<none>" if label is None else label, []).append(job)
        out: Dict[str, SummaryStatistics] = {}
        for label, jobs in sorted(groups.items()):
            finished = [j for j in jobs if j.finished]
            waits = [j.wait_time for j in finished if j.wait_time is not None]
            turnarounds = [j.turnaround for j in finished if j.turnaround is not None]
            slowdowns = [
                s for j in finished if (s := j.bounded_slowdown()) is not None
            ]
            out[label] = SummaryStatistics(
                makespan=max(
                    (j.end_time for j in finished if j.end_time is not None),
                    default=0.0,
                ),
                mean_wait=mean(waits) if waits else nan,
                median_wait=median(waits) if waits else nan,
                max_wait=max(waits) if waits else nan,
                mean_turnaround=mean(turnarounds) if turnarounds else nan,
                p95_turnaround=_quantile(turnarounds, 0.95),
                mean_bounded_slowdown=mean(slowdowns) if slowdowns else nan,
                mean_utilization=self.mean_utilization(),
                completed_jobs=sum(
                    1 for j in finished if j.state.value == "completed"
                ),
                killed_jobs=sum(1 for j in finished if j.state.value == "killed"),
                total_reconfigurations=sum(
                    j.reconfigurations_applied for j in jobs
                ),
            )
        return out

    def summary_by_type(self) -> Dict[str, SummaryStatistics]:
        """Per-job-type summaries (rigid/moldable/malleable/evolving)."""
        return self.summary_by(lambda job: job.type.value)

    def summary_by_user(self) -> Dict[str, SummaryStatistics]:
        """Per-user summaries (for fairness studies)."""
        return self.summary_by(lambda job: job.user)

    def summary_by_class(self) -> Dict[str, SummaryStatistics]:
        """Per-job-class summaries (batch vs. on-demand response times)."""
        return self.summary_by(lambda job: job.job_class.value)

    # -- export -----------------------------------------------------------------

    def write_job_csv(self, path: Union[str, Path]) -> None:
        """Write per-job records as CSV."""
        records = self.job_records()
        if not records:
            Path(path).write_text("")
            return
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)

    def write_summary_json(self, path: Union[str, Path]) -> None:
        """Write the aggregate summary as JSON."""
        Path(path).write_text(json.dumps(self.summary().as_dict(), indent=2))
