"""Replay benchmark: snapshot overhead and warm-resume speedup (E5-class run).

Times the full snapshot/restore loop on the paper's E5 performance
scenario (1000 jobs / 128 nodes, ~320k events): a cold run, the same run
with periodic checkpoints (capture overhead), and warm resumes from the
snapshots nearest 50% and 90% of the event stream.  Every resumed run
must reproduce the cold ``run_record`` byte-for-byte — speed means
nothing if the replayed timeline drifts.

Emits ``BENCH_replay.json`` (see ``common.write_bench_json``) with the
per-row walls/speedups plus capture overhead and snapshot size, gated in
CI against ``benchmarks/baselines/BENCH_replay.json``.  Two thresholds
are hard-asserted here (not just tolerance-gated): resume-at-90% must be
at least 5x faster than cold, and checkpointing every
``_SNAPSHOT_EVERY`` events must cost under ``_MAX_CAPTURE_MS`` of
wall-clock per checkpoint.

The capture budget is absolute, not a share of the run: what a checkpoint
costs (job and monitor records, ROADMAP item 3, plus the collector's
passes over what capture allocated) depends on the state it walks, not on
how fast the engine gets between two of them.  25 ms is what the earlier
"under 10 % of the cold run" budget allowed when it was set — 0.228 s of
a 2.28 s run over nine checkpoints — so the gate binds exactly as it did
then and does not loosen or tighten when the base run speeds up.  The
share is still reported (``capture_overhead_pct``), as information.

Two more rows are information only (walls, ungated): reading a saved
checkpoint set back — ``Snapshot.load`` verifies every file and parses
none — and one ``whatif`` from that set, which parses the one ``state``
section it resumes from.  They run the same scenario with its workload
written out inline, which is what ``whatif`` can diff.
"""

import json
import time

import pytest

from repro import Simulation

from benchmarks.common import (
    evaluation_generate_spec,
    print_table,
    reference_platform_dict,
    write_bench_json,
)

#: Checkpoint cadence in processed events.  ~320k events -> ~10 quiet
#: boundaries: fine enough to land near any resume fraction, coarse
#: enough that capture stays a small share of the run.
_SNAPSHOT_EVERY = 32_000

_MIN_SPEEDUP_90 = 5.0
#: Wall-clock one checkpoint may add: 10 % of the 2.28 s cold run the
#: budget was first set against, over its nine checkpoints.
_MAX_CAPTURE_MS = 25.0

#: Wall-clock repeats per mode (best-of).  Single-shot walls on shared CI
#: runners jitter by ~10% — the same scale as the capture cost — so
#: every timed mode takes the min over this many runs.
_REPEATS = 3


def _e5_spec():
    """The E5 1000-job scenario as a spec (snapshots need from_spec)."""
    return {
        "name": "replay-e5",
        "platform": reference_platform_dict(128),
        "workload": {
            "generate": {
                **evaluation_generate_spec(
                    num_jobs=1000,
                    num_nodes=128,
                    max_request=64,
                    comm_bytes=0.0,  # keep event counts dominated by scheduling
                    mean_interarrival=10.0,
                ),
                "seed": 3,
            }
        },
        "algorithm": "easy",
    }


_rows = []
_state = {}


def _fingerprint(sim):
    return json.dumps(sim.monitor.run_record(), sort_keys=True)


def _timed_run(**run_kwargs):
    """One from_spec run; returns (sim, wall_s)."""
    sim = Simulation.from_spec(_e5_spec())
    start = time.perf_counter()
    sim.run(**run_kwargs)
    return sim, time.perf_counter() - start


@pytest.mark.benchmark(group="replay")
def test_replay_cold(benchmark):
    def run():
        best = None
        for _ in range(_REPEATS):
            sim, wall = _timed_run()
            if best is None or wall < best[1]:
                best = (sim, wall)
        return best

    sim, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    _state["cold_wall"] = wall
    _state["cold_events"] = sim.env.processed_events
    _state["cold_record"] = _fingerprint(sim)
    _rows.append(["cold", sim.env.processed_events, wall, 1.0, 1])
    assert sim.env.processed_events > 0


@pytest.mark.benchmark(group="replay")
def test_replay_capture_overhead(benchmark):
    """The checkpointed run: same record, bounded extra wall-clock."""

    def run():
        best = None
        for _ in range(_REPEATS):
            snaps = []
            sim, wall = _timed_run(
                snapshot_every=_SNAPSHOT_EVERY,
                snapshot_callback=snaps.append,
            )
            if best is None or wall < best[2]:
                best = (sim, snaps, wall)
        return best

    sim, snapshots, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead_pct = 100.0 * (wall - _state["cold_wall"]) / _state["cold_wall"]
    capture_ms = 1000.0 * (wall - _state["cold_wall"]) / len(snapshots)
    _state["snapshots"] = snapshots
    _state["overhead_pct"] = overhead_pct
    _state["capture_ms"] = capture_ms
    # Size of the latest checkpoint as it would live on disk.
    _state["snapshot_size_mb"] = len(
        json.dumps(snapshots[-1].to_dict()).encode()
    ) / 1e6
    _rows.append(
        [
            f"cold+snapshots (every {_SNAPSHOT_EVERY})",
            sim.env.processed_events,
            wall,
            _state["cold_wall"] / wall,
            int(_fingerprint(sim) == _state["cold_record"]),
        ]
    )
    # Checkpointing must not perturb the simulation in any way.
    assert _fingerprint(sim) == _state["cold_record"]
    assert sim.env.processed_events == _state["cold_events"]
    assert len(snapshots) >= 8, "cadence too coarse to bisect resume points"
    assert capture_ms < _MAX_CAPTURE_MS, (
        f"capture cost {capture_ms:.1f} ms per checkpoint "
        f"({overhead_pct:.1f}% of the run) exceeds the "
        f"{_MAX_CAPTURE_MS:.0f} ms budget"
    )


def _resume_at(fraction):
    target = fraction * _state["cold_events"]
    snap = min(
        _state["snapshots"], key=lambda s: abs(s.processed_events - target)
    )
    wall = None
    for _ in range(_REPEATS):
        start = time.perf_counter()
        sim = Simulation.resume(snap)
        sim.run()
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    identical = (
        _fingerprint(sim) == _state["cold_record"]
        and sim.env.processed_events == _state["cold_events"]
    )
    replayed = _state["cold_events"] - snap.processed_events
    speedup = _state["cold_wall"] / wall
    _rows.append(
        [f"resume at {fraction:.0%}", replayed, wall, speedup, int(identical)]
    )
    return speedup, identical


@pytest.mark.benchmark(group="replay")
def test_replay_resume_50(benchmark):
    speedup, identical = benchmark.pedantic(
        lambda: _resume_at(0.5), rounds=1, iterations=1
    )
    _state["speedup_50"] = speedup
    assert identical, "resume at 50% diverged from the cold run"
    assert speedup > 1.0


@pytest.mark.benchmark(group="replay")
def test_replay_resume_90(benchmark):
    speedup, identical = benchmark.pedantic(
        lambda: _resume_at(0.9), rounds=1, iterations=1
    )
    _state["speedup_90"] = speedup
    assert identical, "resume at 90% diverged from the cold run"
    assert speedup >= _MIN_SPEEDUP_90, (
        f"resume-at-90% speedup {speedup:.1f}x below the "
        f"{_MIN_SPEEDUP_90:.0f}x floor"
    )


@pytest.mark.benchmark(group="replay")
def test_replay_whatif_from_saved_set(benchmark, tmp_path):
    """Save the checkpoints, load them back, replay one late edit from them."""
    from repro.replay import Snapshot, run_with_snapshots, whatif
    from repro.workload import WorkloadSpec, generate_workload, workload_to_dict

    base = _e5_spec()
    generate = dict(base["workload"]["generate"])
    seed = generate.pop("seed")
    jobs = generate_workload(WorkloadSpec(**generate), seed=seed)
    base["workload"] = {"inline": workload_to_dict(jobs)}
    record, snapshots = run_with_snapshots(base, _SNAPSHOT_EVERY)
    assert record["processed_events"] == _state["cold_events"]
    for index, snapshot in enumerate(snapshots):
        snapshot.save(tmp_path / f"{index:04d}.json")
    files = sorted(tmp_path.glob("*.json"))

    # The edit: twice the work for the first job submitted after the last
    # checkpoint but one — the replay starts there.
    boundary = snapshots[-2].time
    edited_jobs = list(base["workload"]["inline"]["jobs"])
    at = next(i for i, job in enumerate(edited_jobs) if job["submit_time"] > boundary)
    job = edited_jobs[at]
    phase = job["application"]["phases"][0]
    edited_jobs[at] = {
        **job,
        "walltime": 2 * job["walltime"],
        "application": {
            **job["application"],
            "phases": [{**phase, "iterations": 2 * phase["iterations"]}],
        },
    }
    edited = {**base, "workload": {"inline": {"jobs": edited_jobs}}}

    def run():
        best_load = best_whatif = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            loaded = [Snapshot.load(path) for path in files]
            middle = time.perf_counter()
            result = whatif(base, edited, snapshots=loaded)
            end = time.perf_counter()
            best_load = min(best_load, middle - start)
            best_whatif = min(best_whatif, end - middle)
        return loaded, result, best_load, best_whatif

    loaded, result, load_wall, whatif_wall = benchmark.pedantic(run, rounds=1, iterations=1)
    cold = Simulation.from_spec(edited)
    cold.run()
    intact = all(
        a.to_dict() == b.to_dict() for a, b in zip(loaded[-2:], snapshots[-2:])
    )
    _state["load_ms"] = 1e3 * load_wall
    _state["whatif_saved_set_ms"] = 1e3 * whatif_wall
    _rows.append(
        [f"load {len(files)} checkpoints", 0, load_wall, 0.0, int(intact)]  # no run to speed up
    )
    _rows.append(
        [
            "whatif from saved set",
            result.events_replayed,
            whatif_wall,
            _state["cold_wall"] / whatif_wall,
            int(result.warm and result.record == cold.run_record()),
        ]
    )
    assert result.warm, result.reason
    assert result.snapshot_events == snapshots[-2].processed_events


_HEADER = ["mode", "events_replayed", "wall_s", "speedup", "identical"]


@pytest.mark.benchmark(group="replay")
def test_replay_report(benchmark):
    benchmark.pedantic(lambda: True, rounds=1, iterations=1)
    print_table(
        "Replay: snapshot overhead and warm-resume speedup",
        _HEADER,
        _rows,
        note=(
            "identical=1 means run_record and processed_events match the "
            "cold run byte-for-byte"
        ),
    )
    write_bench_json(
        "replay",
        title="Replay: snapshot overhead and warm-resume speedup",
        header=_HEADER,
        rows=_rows,
        extra={
            "snapshot_every": _SNAPSHOT_EVERY,
            "snapshot_count": len(_state["snapshots"]),
            "snapshot_size_mb": _state["snapshot_size_mb"],
            "capture_overhead_pct": _state["overhead_pct"],
            "capture_ms_per_checkpoint": _state["capture_ms"],
            "cold_wall_s": _state["cold_wall"],
            "cold_events": _state["cold_events"],
            "speedup_50": _state["speedup_50"],
            "speedup_90": _state["speedup_90"],
            "load_ms": _state["load_ms"],
            "whatif_saved_set_ms": _state["whatif_saved_set_ms"],
        },
    )
    assert len(_rows) == 6, "cold/capture/resume/saved-set tests must run first"
    assert all(row[4] == 1 for row in _rows)
