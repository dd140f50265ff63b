"""Incremental what-if replay: edit a scenario, replay only the suffix.

A what-if run answers "what changes if I tweak the workload?" without
paying for the shared prefix again.  The edited spec is diffed against
the base spec per job; the earliest submit time touched by the edit is
the *divergence time* — everything the base run did strictly before it
is identical in the edited run.  The latest snapshot taken before the
divergence is then *spliced*: the edited spec is substituted, the
submit timers of removed/added/retimed jobs are surgically dropped,
retimed, or inserted into the captured event queue (using fractional
ranks between existing entries, so relative processing order matches
the cold edited run exactly), and the result is restored and run to
completion.  The record that comes out is byte-identical to a cold run
of the edited spec.

Eligibility is deliberately strict — anything the diff cannot prove
safe falls back to a cold run, which is always correct, just slower:

- only ``workload.inline.jobs`` may differ (any other spec difference,
  including the application library, is ineligible);
- every touched submit time (old and new) must lie strictly after the
  snapshot time — i.e. all affected jobs are still unsubmitted;
- jobs common to both specs must appear in the same relative order
  (submit-timer creation order breaks simultaneous-submit ties).

:class:`WhatIfSession` builds on this for campaign warm-starts: grid
scenarios that share everything but their inline jobs reuse one
snapshotted base run.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from repro.des.events import NORMAL
from repro.replay.restore import restore_simulation
from repro.replay.snapshot import ReplayError, Snapshot

#: Default snapshot cadence (processed events) for base runs.
DEFAULT_SNAPSHOT_EVERY = 2000


def run_with_snapshots(
    spec: dict,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    snapshot_callback=None,
) -> Tuple[dict, List[Snapshot]]:
    """Cold-run ``spec`` to completion, collecting periodic snapshots.

    Returns ``(run_record, snapshots)``.
    """
    from repro.batch import Simulation

    sim = Simulation.from_spec(spec)
    sim.run(snapshot_every=snapshot_every, snapshot_callback=snapshot_callback)
    return sim.run_record(), list(sim.snapshots)


def _checkpoint_set(base_spec: dict, directory, snapshot_every: int) -> List[Snapshot]:
    """The base run's checkpoints kept in ``directory`` (``elastisim whatif
    --checkpoints``): loaded — headers only — when every file there
    verifies and was taken from ``base_spec`` by this simulator version;
    otherwise the base is run once and its set replaces what was there."""
    kept = sorted(directory.glob("checkpoint-*.json"))
    try:
        snapshots = [Snapshot.load(path) for path in kept]
    except ReplayError:
        snapshots = []
    one_run = len({(snap._salt, snap._spec_sha) for snap in snapshots}) == 1
    if not one_run or snapshots[0]._mismatch(base_spec):
        for path in kept:
            path.unlink()
        _, snapshots = run_with_snapshots(base_spec, snapshot_every)
        for index, snap in enumerate(snapshots):
            snap.save(directory / f"checkpoint-{index:04d}.json")
    return snapshots


def _inline_jobs(spec: dict) -> Optional[List[dict]]:
    """The inline job list of ``spec``, or None if the workload is not inline."""
    workload = spec.get("workload")
    if not isinstance(workload, dict):
        return None
    inline = workload.get("inline")
    if not isinstance(inline, dict):
        return None
    jobs = inline.get("jobs")
    if not isinstance(jobs, list):
        return None
    return jobs


def _job_map(jobs: List[dict]) -> Tuple[List[Any], Dict[Any, dict]]:
    """Jobs keyed by effective jid (explicit ``id`` or 1-based position).

    The same default the workload loader applies, so the diff keys line
    up with the jids the simulation will actually assign.
    """
    order: List[Any] = []
    by_jid: Dict[Any, dict] = {}
    for index, job in enumerate(jobs):
        jid = job.get("id", index + 1)
        if jid in by_jid:
            raise ReplayError(f"duplicate job id {jid!r} in workload")
        order.append(jid)
        by_jid[jid] = job
    return order, by_jid


def _strippable(spec: dict) -> dict:
    """``spec`` minus cosmetic keys and the inline job list — the part
    that must match exactly for two scenarios to be warm-comparable."""
    doc = {k: v for k, v in spec.items() if k not in ("name", "params", "workload")}
    workload = spec.get("workload")
    if isinstance(workload, dict):
        # The workload's own "name" is a label, not content — campaign
        # variants keep distinct names while sharing a warm-start base.
        wl = {k: v for k, v in workload.items() if k not in ("inline", "name")}
        inline = workload.get("inline")
        if isinstance(inline, dict):
            wl["inline"] = {k: v for k, v in inline.items() if k != "jobs"}
        doc["workload"] = wl
    return doc


def diff_workloads(base_spec: dict, edited_spec: dict) -> Optional[dict]:
    """Per-job diff of two scenario specs, or None when not warm-comparable.

    Comparable means: both workloads are inline, everything outside the
    inline job list (platform, algorithm, sim, seed, applications — all
    but the cosmetic ``name``/``params``) is identical, and jobs common
    to both specs keep their relative order.  The returned dict has
    ``added`` / ``removed`` / ``modified`` jid lists and
    ``divergence_time`` — the earliest submit time (old or new) touched
    by the edit, ``inf`` when the specs are equivalent.
    """
    base_jobs = _inline_jobs(base_spec)
    edit_jobs = _inline_jobs(edited_spec)
    if base_jobs is None or edit_jobs is None:
        return None
    if _strippable(base_spec) != _strippable(edited_spec):
        return None
    base_order, base_map = _job_map(base_jobs)
    edit_order, edit_map = _job_map(edit_jobs)
    common = set(base_map) & set(edit_map)
    if [j for j in base_order if j in common] != [j for j in edit_order if j in common]:
        return None  # reordering common jobs would reorder their submit ties

    added = [jid for jid in edit_order if jid not in base_map]
    removed = [jid for jid in base_order if jid not in edit_map]
    modified = [
        jid for jid in edit_order if jid in base_map and base_map[jid] != edit_map[jid]
    ]

    times: List[float] = []
    for jid in added:
        times.append(float(edit_map[jid].get("submit_time", 0.0)))
    for jid in removed:
        times.append(float(base_map[jid].get("submit_time", 0.0)))
    for jid in modified:
        times.append(float(base_map[jid].get("submit_time", 0.0)))
        times.append(float(edit_map[jid].get("submit_time", 0.0)))
    return {
        "added": added,
        "removed": removed,
        "modified": modified,
        "divergence_time": min(times) if times else inf,
    }


def _as_rank(rank: Any) -> list:
    """Normalize a queue-entry rank (int or tuple) to list form."""
    return list(rank) if isinstance(rank, (list, tuple)) else [rank]


def splice_snapshot(snapshot: Snapshot, edited_spec: dict, diff: dict) -> Snapshot:
    """``snapshot`` edited to continue as the edited scenario.

    Assumes eligibility (every touched submit time strictly after the
    snapshot time) — verified here as a hard error, since violating it
    silently corrupts the replay.  The splice touches four things: the
    embedded spec, the pending submit-timer records, the captured event
    queue, and the processed-event counter (one submitter bootstrap
    event per job added or removed at time zero).  Only the path to them
    is copied, one level at a time: ``edited_spec`` is referenced and
    every other sub-tree is shared with ``snapshot`` — restoring reads a
    snapshot and never writes to it (docs/REPLAY.md, "What-if replay").
    """
    changed = set(diff["added"]) | set(diff["removed"]) | set(diff["modified"])
    if snapshot.time >= diff["divergence_time"]:
        raise ReplayError(
            f"snapshot at t={snapshot.time:g} is not before the divergence "
            f"at t={diff['divergence_time']:g}"
        )
    # Shrinking the job list moves the finished-count finish line: if every
    # surviving job had already finished by this snapshot, the edited cold
    # run ended *before* it (all_done fires at the last common finish), so
    # the boundary does not exist in the edited timeline.
    finished = snapshot.finished_jobs
    edited_jobs = _inline_jobs(edited_spec)
    num_edited = len(edited_jobs)
    if finished >= num_edited:
        raise ReplayError(
            f"snapshot has {finished} finished jobs but the edited workload "
            f"only has {num_edited}; the edited run ends before this boundary"
        )

    state = dict(snapshot.state)
    env_state = state["env"] = dict(state["env"])
    batch_state = state["batch"] = dict(state["batch"])
    edit_order, edit_map = _job_map(edited_jobs)

    # Jobs touched by the edit must still be pristine: pending in the
    # captured run, so a fresh job built from the edited spec needs no
    # state overlay at all.  Drop their records (and removed jobs').
    pending = {rec["jid"] for rec in batch_state["submitters"]}
    for jid in diff["removed"] + diff["modified"]:
        if jid not in pending:
            raise ReplayError(
                f"job {jid} was already submitted at the snapshot boundary; "
                "the edit is not warm-eligible"
            )
    state["jobs"] = [rec for rec in state["jobs"] if rec["jid"] not in changed]

    # Submit entries: drop removed, retime modified (rank keeps the
    # original creation order, which the edit does not change), insert
    # added between the ranks of their list neighbours.
    removed_sids = {f"submit.{jid}" for jid in diff["removed"]}
    modified_times = {
        f"submit.{jid}": float(edit_map[jid].get("submit_time", 0.0))
        for jid in diff["modified"]
    }
    queue = []
    dropped = 0
    pending_ranks: Dict[Any, list] = {}
    for time, priority, rank, sid in env_state["queue"]:
        if sid in removed_sids:
            dropped += 1
            continue
        if sid in modified_times:
            time = modified_times[sid]
        if sid.startswith("submit."):
            pending_ranks[sid[len("submit."):]] = _as_rank(rank)
        queue.append([time, priority, rank, sid])

    submitters = [
        rec for rec in batch_state["submitters"] if rec["jid"] not in changed
    ]
    for rec in batch_state["submitters"]:
        if rec["jid"] in diff["modified"]:
            submitters.append(
                {
                    "jid": rec["jid"],
                    "sid": rec["sid"],
                    "delay": float(edit_map[rec["jid"]].get("submit_time", 0.0)),
                }
            )

    added_set = set(diff["added"])
    inserted = 0
    prev_rank: Optional[list] = None  # rank of the nearest preceding pending job
    for jid in edit_order:
        key = str(jid)
        if jid in added_set:
            rank = (prev_rank + [1, 1]) if prev_rank is not None else [-1, 1, 1]
            submit_time = float(edit_map[jid].get("submit_time", 0.0))
            sid = f"submit.{jid}"
            queue.append([submit_time, NORMAL, rank, sid])
            submitters.append({"jid": jid, "sid": sid, "delay": submit_time})
            pending_ranks[key] = rank
            inserted += 1
            prev_rank = rank
        elif key in pending_ranks:
            prev_rank = pending_ranks[key]

    submitters.sort(key=lambda rec: str(rec["jid"]))
    env_state["queue"] = queue
    batch_state["submitters"] = submitters
    shift = inserted - dropped
    env_state["processed_events"] += shift
    return Snapshot(
        schema_version=snapshot.schema_version,
        time=snapshot.time,
        processed_events=snapshot.processed_events + shift,
        spec=edited_spec,
        state=state,
    )


@dataclass
class WhatIfResult:
    """Outcome of :func:`whatif` (or one :class:`WhatIfSession` run)."""

    #: ``monitor.run_record()`` of the edited scenario — byte-identical
    #: to a cold run whether the warm path was taken or not.
    record: dict
    #: True when the run was restored from a snapshot (suffix replay).
    warm: bool
    #: Why the cold path was taken (None when warm).
    reason: Optional[str] = None
    #: Simulated time / processed-event count of the restored snapshot.
    snapshot_time: Optional[float] = None
    snapshot_events: Optional[int] = None
    #: Events actually replayed vs the edited run's total.
    events_replayed: Optional[int] = None
    events_total: Optional[int] = None
    #: The workload diff (None when the specs were not comparable).
    diff: Optional[dict] = None

    @property
    def events_saved(self) -> int:
        """Events skipped by the warm start (0 for cold runs)."""
        if not self.warm or self.events_total is None:
            return 0
        return self.events_total - (self.events_replayed or 0)


def _cold_record(spec: dict) -> dict:
    from repro.batch import Simulation

    sim = Simulation.from_spec(spec)
    sim.run(until=spec.get("sim", {}).get("until"))
    return sim.run_record()


def whatif(
    base_spec: dict,
    edited_spec: dict,
    *,
    snapshots: Optional[List[Snapshot]] = None,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
) -> WhatIfResult:
    """Run the edited scenario, reusing the base run's prefix when safe.

    ``snapshots`` are checkpoints from a prior base run
    (:func:`run_with_snapshots`); when omitted, the base is cold-run
    here first.  Falls back to a full cold run of ``edited_spec``
    whenever the edit is not provably prefix-preserving — the result
    record is byte-identical either way.
    """
    diff = diff_workloads(base_spec, edited_spec)
    if snapshots is None and diff is not None:
        _, snapshots = run_with_snapshots(base_spec, snapshot_every)

    reason = None
    if diff is None:
        reason = "specs differ outside the inline job list"
    else:
        num_edited = len(_inline_jobs(edited_spec))
        # Chosen from what a file's header carries: no section is parsed.
        eligible = [
            s
            for s in snapshots
            if s.time < diff["divergence_time"] and s.finished_jobs < num_edited
        ]
        if not eligible:
            reason = (
                f"no snapshot before the divergence at "
                f"t={diff['divergence_time']:g}"
            )
        else:
            snap = max(eligible, key=lambda s: s.processed_events)
            reason = snap._mismatch(base_spec)  # never resume foreign state
    if reason is not None:
        record = _cold_record(edited_spec)
        return WhatIfResult(record=record, warm=False, reason=reason, diff=diff)

    try:
        spliced = splice_snapshot(snap, edited_spec, diff)
        sim = restore_simulation(spliced)
    except ReplayError as exc:
        record = _cold_record(edited_spec)
        return WhatIfResult(
            record=record, warm=False, reason=f"splice failed: {exc}", diff=diff
        )
    sim.run()
    total = sim.env.processed_events
    return WhatIfResult(
        record=sim.run_record(),
        warm=True,
        snapshot_time=snap.time,
        snapshot_events=snap.processed_events,
        events_replayed=total - spliced.processed_events,
        events_total=total,
        diff=diff,
    )


class WhatIfSession:
    """Warm-start cache for scenario grids sharing a workload prefix.

    The first scenario of each compatibility group (same platform,
    algorithm, sim block, seed, engine pins — everything but the inline
    jobs) is cold-run with periodic snapshots; later members warm-start
    from the latest safe checkpoint via :func:`whatif`.  Scenarios that
    cannot participate (non-inline workloads, an explicit ``sim.until``)
    are simply cold-run.
    """

    def __init__(self, snapshot_every: int = DEFAULT_SNAPSHOT_EVERY) -> None:
        self.snapshot_every = snapshot_every
        self._bases: Dict[str, Tuple[dict, List[Snapshot]]] = {}
        self.stats = {"cold": 0, "warm": 0, "events_saved": 0}

    def compatibility_key(self, spec: dict) -> Optional[str]:
        """Stable key of everything warm-starts must hold fixed, or None
        when the scenario cannot warm-start at all."""
        if _inline_jobs(spec) is None:
            return None
        if spec.get("sim", {}).get("until") is not None:
            return None  # snapshot runs must run to completion
        try:
            return json.dumps(_strippable(spec), sort_keys=True, default=repr)
        except TypeError:
            return None

    def run(self, spec: dict) -> WhatIfResult:
        """Run one scenario, warm-starting when a compatible base exists."""
        key = self.compatibility_key(spec)
        if key is None:
            record = _cold_record(spec)
            self.stats["cold"] += 1
            return WhatIfResult(
                record=record, warm=False, reason="scenario cannot warm-start"
            )
        entry = self._bases.get(key)
        if entry is None:
            record, snaps = run_with_snapshots(spec, self.snapshot_every)
            total = record.get("processed_events", 0)
            if len(snaps) < 8 and total > 50:
                # Short base run: the configured cadence left too few (or
                # zero) checkpoints for later edits to land after one.
                # Re-running at a finer cadence costs one more short run
                # and pays off across the whole grid.
                finer = max(25, total // 16)
                if finer < self.snapshot_every:
                    record, snaps = run_with_snapshots(spec, finer)
            self._bases[key] = (deepcopy(spec), snaps)
            self.stats["cold"] += 1
            return WhatIfResult(
                record=record, warm=False, reason="base run (snapshots recorded)"
            )
        base_spec, snaps = entry
        result = whatif(base_spec, spec, snapshots=snaps)
        self.stats["warm" if result.warm else "cold"] += 1
        self.stats["events_saved"] += result.events_saved
        return result
