"""Runtime invariant checking over flight-recorder traces.

The checker audits conservation properties that must hold for *any*
scheduling policy — a violation is always a bug, either in the simulator
or in the checker, and both outcomes are actionable:

``monotonic-time``
    Records are emitted in non-decreasing time order (span end counts as
    the emission instant).
``node-double-alloc``
    A node is never allocated while already held, never released while
    free, and never released by a job that does not hold it.
``alloc-count``
    The batch system's reported allocated-node count always equals the
    number of nodes currently held (committed + reserved) per the
    per-node allocation records.
``queue-accounting``
    ``submits − starts − drops`` always equals the reported queue length.
``walltime``
    A started job's runtime never exceeds its walltime (beyond float
    tolerance — the watchdog kills at the walltime instant, which is the
    job's last scheduling opportunity).
``reserved-committed``
    Every node reserved by a reconfiguration order is eventually
    committed or released (at the latest when its job ends).
``terminal-release``
    When the simulation ends with no job running, no node is still held.
``power-corridor``
    Aggregate node draw (idle for free nodes, peak for held ones, zero
    for failed ones) never exceeds the platform's power corridor.  Armed
    only when the trace declares a corridor *and* marks it enforced
    (``sim.start``'s ``power`` args, set for algorithms that declare
    :attr:`~repro.scheduler.base.Algorithm.respects_power_corridor`) —
    the corridor is a policy contract, not a law of physics, so
    corridor-oblivious schedulers are not audited against it.  Draw is
    validated at *settled* instants: all records carrying one timestamp
    are applied before the check, so same-instant release-then-allocate
    transients cannot produce false positives.

Use it online (subscribe :meth:`InvariantChecker.feed` to a
:class:`~repro.tracing.Tracer`) or post-hoc over a saved trace
(:func:`check_trace`).  :func:`check_monitor` separately audits a
:class:`~repro.monitoring.Monitor`'s allocation series against its
per-job allocation segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.tracing.tracer import TraceError, TraceRecord, read_jsonl


@dataclass(slots=True)
class Violation:
    """One invariant failure: when, which invariant, and what happened."""

    time: float
    invariant: str
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "invariant": self.invariant, "message": self.message}

    def __str__(self) -> str:
        return f"[t={self.time:g}] {self.invariant}: {self.message}"


class InvariantViolation(Exception):
    """Raised by checked runs when at least one invariant failed."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = list(violations)
        preview = "; ".join(str(v) for v in self.violations[:3])
        extra = len(self.violations) - 3
        if extra > 0:
            preview += f" (+{extra} more)"
        super().__init__(f"{len(self.violations)} invariant violation(s): {preview}")


class InvariantChecker:
    """Streaming checker over trace records.

    Feed records in emission order (:meth:`feed`), then call
    :meth:`finish` for the end-of-trace checks; :attr:`violations`
    accumulates everything found.  The checker is policy-agnostic: it
    only consumes record kinds and args, never simulator objects, so it
    works identically online and over a deserialized trace.
    """

    def __init__(
        self,
        *,
        num_nodes: Optional[int] = None,
        tolerance: float = 1e-9,
        power: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.tolerance = tolerance
        self.violations: List[Violation] = []

        self._last_emission = -inf
        #: node index -> jid currently holding it (committed or reserved).
        self._owner: Dict[int, int] = {}
        self._submits = 0
        self._starts = 0
        self._drops = 0
        #: jid -> (start time, walltime) for running jobs.
        self._running: Dict[int, tuple] = {}
        #: jid -> reserved node indices of an uncommitted order.
        self._pending_orders: Dict[int, Set[int]] = {}
        self._sim_ended = False
        self._finished = False
        #: indices of currently-failed nodes (drawing zero watts).
        self._failed: Set[int] = set()
        # -- power corridor (armed via `power` or a sim.start record) -------
        self._power_armed = False
        self._power_idle: List[float] = []
        self._power_peak: List[float] = []
        self._power_corridor = inf
        #: Instant whose power state changed but is not yet validated; the
        #: check fires once emission time advances past it (settled state).
        self._power_dirty_at: Optional[float] = None
        self._arm_power(power)

    def _arm_power(self, profile: Optional[Dict[str, Any]]) -> None:
        """Arm the corridor audit from a ``sim.start``-shaped power profile.

        ``idle``/``peak`` may each be a scalar (uniform machine) or a
        per-node list; scalars need a known node count to expand.  Without
        a corridor, or with ``enforced`` false, the audit stays off.
        """
        if not profile:
            return
        corridor = profile.get("corridor")
        if corridor is None or not profile.get("enforced"):
            return
        idle = profile.get("idle", 0.0)
        peak = profile.get("peak")
        if peak is None:
            return
        count = self.num_nodes
        if isinstance(peak, list):
            count = len(peak)
        elif isinstance(idle, list):
            count = len(idle)
        if count is None:
            return  # scalar profile with unknown machine size
        self._power_idle = (
            [float(w) for w in idle] if isinstance(idle, list) else [float(idle)] * count
        )
        self._power_peak = (
            [float(w) for w in peak] if isinstance(peak, list) else [float(peak)] * count
        )
        self._power_corridor = float(corridor)
        self._power_armed = True

    def _power_touch(self, time: float) -> None:
        """Mark ``time`` as a power-state change awaiting a settled check."""
        if self._power_armed:
            self._power_dirty_at = time

    def _check_corridor(self) -> None:
        """Validate the settled draw at the last power-change instant."""
        time = self._power_dirty_at
        self._power_dirty_at = None
        if time is None:
            return
        draw = 0.0
        for index, idle in enumerate(self._power_idle):
            if index in self._failed:
                continue
            draw += self._power_peak[index] if index in self._owner else idle
        limit = self._power_corridor
        if draw > limit * (1 + 1e-9) + self.tolerance:
            self._violate(
                time,
                "power-corridor",
                f"aggregate draw {draw:g} W exceeds the {limit:g} W corridor",
            )

    # -- reporting ----------------------------------------------------------

    def _violate(self, time: float, invariant: str, message: str) -> None:
        self.violations.append(Violation(time, invariant, message))

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- streaming ----------------------------------------------------------

    def feed(self, record: TraceRecord) -> None:
        """Consume one record (subscribe this to a live tracer)."""
        emission = record.end
        if emission < self._last_emission - self.tolerance:
            self._violate(
                emission,
                "monotonic-time",
                f"{record.kind} emitted at {emission:g} after t={self._last_emission:g}",
            )
        else:
            self._last_emission = max(self._last_emission, emission)

        if self._power_dirty_at is not None and emission > self._power_dirty_at:
            self._check_corridor()

        handler = self._HANDLERS.get(record.kind)
        if handler is not None:
            handler(self, record)

    def finish(self) -> List[Violation]:
        """Run end-of-trace checks; returns all violations found so far."""
        if self._finished:
            return self.violations
        self._finished = True
        self._check_corridor()
        time = self._last_emission if self._last_emission > -inf else 0.0
        for jid, reserved in sorted(self._pending_orders.items()):
            self._violate(
                time,
                "reserved-committed",
                f"job {jid}: order reserving nodes {sorted(reserved)} was never "
                "committed or released",
            )
        if self._sim_ended and not self._running and self._owner:
            held = {node: jid for node, jid in sorted(self._owner.items())}
            self._violate(
                time,
                "terminal-release",
                f"simulation ended with no running jobs but nodes still held: {held}",
            )
        return self.violations

    def check(self, records: Iterable[TraceRecord]) -> List[Violation]:
        """Post-hoc convenience: feed every record, then :meth:`finish`."""
        for record in records:
            self.feed(record)
        return self.finish()

    # -- record handlers ----------------------------------------------------

    def _queued_check(self, record: TraceRecord) -> None:
        reported = record.args.get("queued")
        if reported is None:
            return
        derived = self._submits - self._starts - self._drops
        if derived != reported:
            self._violate(
                record.time,
                "queue-accounting",
                f"after {record.kind} of job {record.args.get('jid')}: "
                f"submits({self._submits}) - starts({self._starts}) - "
                f"drops({self._drops}) = {derived}, but reported queue "
                f"length is {reported}",
            )

    def _on_submit(self, record: TraceRecord) -> None:
        self._submits += 1
        self._queued_check(record)

    def _on_start(self, record: TraceRecord) -> None:
        self._starts += 1
        jid = record.args.get("jid")
        walltime = record.args.get("walltime")
        self._running[jid] = (record.time, walltime if walltime is not None else inf)
        self._queued_check(record)

    def _on_queue_drop(self, record: TraceRecord) -> None:
        self._drops += 1
        self._pending_orders.pop(record.args.get("jid"), None)
        self._queued_check(record)

    def _on_end(self, record: TraceRecord) -> None:
        jid = record.args.get("jid")
        started = self._running.pop(jid, None)
        if started is not None:
            start, walltime = started
            runtime = record.time - start
            if isfinite(walltime) and runtime > walltime * (1 + 1e-9) + self.tolerance:
                self._violate(
                    record.time,
                    "walltime",
                    f"job {jid}: runtime {runtime:g} exceeds walltime {walltime:g}",
                )
        reserved = self._pending_orders.pop(jid, None)
        if reserved is not None:
            still_held = sorted(
                node for node in reserved if self._owner.get(node) == jid
            )
            if still_held:
                self._violate(
                    record.time,
                    "reserved-committed",
                    f"job {jid} ended still holding reserved nodes {still_held} "
                    "from an uncommitted order",
                )

    def _on_node_alloc(self, record: TraceRecord) -> None:
        node = record.args.get("node")
        jid = record.args.get("jid")
        holder = self._owner.get(node)
        if holder is not None:
            self._violate(
                record.time,
                "node-double-alloc",
                f"node {node} allocated to job {jid} while held by job {holder}",
            )
        self._owner[node] = jid
        self._power_touch(record.time)
        if self.num_nodes is not None and len(self._owner) > self.num_nodes:
            self._violate(
                record.time,
                "alloc-count",
                f"{len(self._owner)} nodes held on a {self.num_nodes}-node machine",
            )

    def _on_node_release(self, record: TraceRecord) -> None:
        node = record.args.get("node")
        jid = record.args.get("jid")
        holder = self._owner.get(node)
        if holder is None:
            self._violate(
                record.time,
                "node-double-alloc",
                f"node {node} released by job {jid} but was not allocated",
            )
            return
        if holder != jid:
            self._violate(
                record.time,
                "node-double-alloc",
                f"node {node} released by job {jid} but held by job {holder}",
            )
        del self._owner[node]
        self._power_touch(record.time)

    def _on_alloc_count(self, record: TraceRecord) -> None:
        reported = record.args.get("n")
        if reported is None:
            return
        if reported != len(self._owner):
            self._violate(
                record.time,
                "alloc-count",
                f"batch system reports {reported} allocated nodes, per-node "
                f"records say {len(self._owner)}",
            )

    def _on_reconf_order(self, record: TraceRecord) -> None:
        jid = record.args.get("jid")
        added = set(record.args.get("added", ()))
        if jid in self._pending_orders:
            self._violate(
                record.time,
                "reserved-committed",
                f"job {jid}: new order issued while a previous order is pending",
            )
        self._pending_orders[jid] = added

    def _on_reconf_commit(self, record: TraceRecord) -> None:
        jid = record.args.get("jid")
        self._pending_orders.pop(jid, None)

    def _on_node_fail(self, record: TraceRecord) -> None:
        self._failed.add(record.args.get("node"))
        self._power_touch(record.time)

    def _on_node_repair(self, record: TraceRecord) -> None:
        self._failed.discard(record.args.get("node"))
        self._power_touch(record.time)

    def _on_sim_start(self, record: TraceRecord) -> None:
        if self.num_nodes is None:
            self.num_nodes = record.args.get("nodes")
        if not self._power_armed:
            self._arm_power(record.args.get("power"))

    def _on_sim_end(self, record: TraceRecord) -> None:
        self._sim_ended = True

    _HANDLERS = {
        "job.submit": _on_submit,
        "job.start": _on_start,
        "job.queue_drop": _on_queue_drop,
        "job.complete": _on_end,
        "job.kill": _on_end,
        "node.alloc": _on_node_alloc,
        "node.release": _on_node_release,
        "node.fail": _on_node_fail,
        "node.repair": _on_node_repair,
        "alloc.count": _on_alloc_count,
        "reconf.order": _on_reconf_order,
        "reconf.commit": _on_reconf_commit,
        "sim.start": _on_sim_start,
        "sim.end": _on_sim_end,
    }


def check_trace(
    source: Union[str, "Path", Iterable[TraceRecord]],
    *,
    num_nodes: Optional[int] = None,
) -> List[Violation]:
    """Post-hoc check of a saved JSONL trace (path) or record iterable."""
    checker = InvariantChecker(num_nodes=num_nodes)
    if not isinstance(source, (str, Path)):
        return checker.check(source)
    # What a file's ``args`` hold is anybody's guess: a handler that trips
    # over them found a malformed record, not a bug.
    for number, record in enumerate(read_jsonl(source), start=1):
        try:
            checker.feed(record)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise TraceError(
                f"{source}: record {number}, a {record.kind}, has args that no "
                f"{record.kind} record carries: {record.args}"
            ) from None
    return checker.finish()


# -- monitor-side consistency ------------------------------------------------


def check_monitor(monitor: Any) -> List[Violation]:
    """Audit a finished :class:`~repro.monitoring.Monitor` for consistency.

    Validates the allocation/queue step series themselves (bounds,
    monotone time) and the conservation relation between the two
    allocation views: at every instant, the nodes committed to jobs via
    allocation segments can never exceed the reported allocated count
    (the count additionally includes nodes *reserved* for pending
    expansions, so it is an upper bound, with equality whenever no
    reservation is outstanding).
    """
    violations: List[Violation] = []
    num_nodes = monitor.num_nodes

    last_t = -inf
    for t, count in monitor.allocation_series:
        if t < last_t:
            violations.append(
                Violation(t, "series-time", f"allocation series time went backwards at {t:g}")
            )
        last_t = t
        if not 0 <= count <= num_nodes:
            violations.append(
                Violation(
                    t,
                    "alloc-count",
                    f"allocation series level {count} outside [0, {num_nodes}]",
                )
            )
    last_t = -inf
    for t, count in monitor.queue_series:
        if t < last_t:
            violations.append(
                Violation(t, "series-time", f"queue series time went backwards at {t:g}")
            )
        last_t = t
        if count < 0:
            violations.append(
                Violation(t, "queue-accounting", f"queue series level {count} is negative")
            )

    horizon = monitor.makespan()
    # Per-job segments must be sequential and non-overlapping.
    deltas: Dict[float, int] = {}
    for job in monitor.jobs:
        previous_end = -inf
        for seg in monitor.segments(job.jid):
            end = seg.end if seg.end is not None else horizon
            if seg.start < previous_end:
                violations.append(
                    Violation(
                        seg.start,
                        "segment-overlap",
                        f"job {job.jid}: segment starting at {seg.start:g} overlaps "
                        f"the previous one ending at {previous_end:g}",
                    )
                )
            previous_end = end
            if end < seg.start:
                violations.append(
                    Violation(
                        seg.start,
                        "segment-overlap",
                        f"job {job.jid}: segment ends ({end:g}) before it starts "
                        f"({seg.start:g})",
                    )
                )
                continue
            width = len(seg.node_indices)
            deltas[seg.start] = deltas.get(seg.start, 0) + width
            deltas[end] = deltas.get(end, 0) - width

    # Sweep: committed usage (from segments) vs reported level (series),
    # compared on the open intervals between changes so simultaneous
    # updates at one instant cannot produce false positives.
    series = list(monitor.allocation_series)
    times = sorted(set(deltas) | {t for t, _ in series})
    usage = 0
    series_index = 0
    level = 0
    for i, t in enumerate(times):
        usage += deltas.get(t, 0)
        while series_index < len(series) and series[series_index][0] <= t:
            level = series[series_index][1]
            series_index += 1
        if i + 1 < len(times) and usage > level:
            violations.append(
                Violation(
                    t,
                    "series-segment",
                    f"committed segment usage {usage} exceeds reported "
                    f"allocation level {level} on [{t:g}, {times[i + 1]:g})",
                )
            )
    if usage != 0:
        violations.append(
            Violation(
                horizon,
                "series-segment",
                f"allocation segments do not balance: {usage} nodes never released",
            )
        )
    return violations
