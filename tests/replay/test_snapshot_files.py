"""Sealed snapshot files and the copy-free splice: what ``whatif`` leans on.

Three properties, none of them a wall clock: restoring and replaying never
write to (or keep a writable alias of) the snapshot or the edited spec they
read, so one in-memory checkpoint set can serve any number of replays; a
what-if over a loaded directory parses the headers and the one ``state``
section it resumes from, nothing else, and splices it without a deep copy;
and checkpoints of another scenario or another simulator version are never
resumed from.
"""

import copy
import importlib
import json
from types import SimpleNamespace

import pytest

from benchmarks.e2e import gen
from repro import Simulation
from repro.replay import Snapshot, diff_workloads, whatif
from repro.replay import snapshot as snapshot_module
from repro.replay.whatif import run_with_snapshots, splice_snapshot

from tests.replay.helpers import reseal_header

#: The module — the package attribute ``repro.replay.whatif`` is the function.
whatif_module = importlib.import_module("repro.replay.whatif")

SEED = 11


def _cold(spec):
    sim = Simulation.from_spec(spec)
    sim.run()
    return sim.run_record()


def _checkpointed(base, snapshot_every, fraction=0.5):
    """Base run, its checkpoints, and the benchmark's edit after the
    checkpoint nearest ``fraction`` of the events."""
    record, snapshots = run_with_snapshots(base, snapshot_every)
    last_submit = base["workload"]["inline"]["jobs"][-1]["submit_time"]
    editable = [s for s in snapshots if s.time < last_submit]
    nearest = min(
        editable, key=lambda s: abs(s.processed_events - fraction * record["processed_events"])
    )
    return snapshots, gen.edit_after(base, nearest.time)


def _whatif_edit_quick():
    inputs = gen.whatif_edit(SEED, quick=True)
    return inputs["base"], inputs["snapshot_every"]


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(_whatif_edit_quick, id="whatif_edit-quick"),
        pytest.param(lambda: (gen.malleable_io(SEED, quick=True), 400), id="malleable_io-quick"),
    ],
)
def test_replaying_neither_writes_to_nor_aliases_what_it_reads(scenario):
    base, snapshot_every = scenario()
    snapshots, edited = _checkpointed(base, snapshot_every)
    assert len(snapshots) >= 4

    def frozen():
        return [json.dumps(s.to_dict(), sort_keys=True) for s in snapshots], json.dumps(
            edited, sort_keys=True
        )

    before = frozen()
    first = whatif(base, edited, snapshots=snapshots)
    second = whatif(base, edited, snapshots=snapshots)
    assert first.warm and second.warm
    assert first.record == second.record == _cold(edited)
    assert frozen() == before

    # The spliced snapshot shares every sub-tree it did not edit with the
    # base one: running it to the end must leave them as they were.
    used = next(s for s in snapshots if s.processed_events == first.snapshot_events)
    spliced = splice_snapshot(used, edited, diff_workloads(base, edited))
    assert spliced.spec is edited
    assert spliced.state["monitor"] is used.state["monitor"]
    assert spliced.state["env"] is not used.state["env"]
    Simulation.resume(spliced).run()
    for snapshot in (used, snapshots[len(snapshots) // 2]):
        resumed = Simulation.resume(snapshot)
        resumed.run()
        assert resumed.run_record() == _cold(base)
    assert frozen() == before


def _saved_set(tmp_path, count=12):
    base, _ = _whatif_edit_quick()
    snapshots, edited = _checkpointed(base, 150)
    assert len(snapshots) >= count
    step = len(snapshots) / count
    for index in range(count):
        snapshots[int(index * step)].save(tmp_path / f"{index:04d}.json")
    return base, edited, sorted(tmp_path.glob("*.json"))


def test_a_whatif_over_twelve_files_parses_twelve_headers_and_one_state(tmp_path, monkeypatch):
    base, edited, files = _saved_set(tmp_path)
    parsed = []

    def counting_loads(data, **options):
        parsed.append(len(data))
        return json.loads(data, **options)

    # As seen from repro.replay.snapshot only: nothing else is counted.
    monkeypatch.setattr(
        snapshot_module, "json", SimpleNamespace(loads=counting_loads, dumps=json.dumps)
    )
    snapshots = [Snapshot.load(path) for path in files]
    assert len(parsed) == 12 and max(parsed) < 1024  # headers
    result = whatif(base, edited, snapshots=snapshots)
    assert result.warm
    assert len(parsed) == 13  # ... and the state section resumed from
    assert sum(parsed) < 1.5 * max(path.stat().st_size for path in files)
    untouched = [s for s in snapshots if s.processed_events != result.snapshot_events]
    assert all(isinstance(s._sections["state"], bytes) for s in untouched)
    assert all(isinstance(s._sections["spec"], bytes) for s in snapshots)
    monkeypatch.undo()
    assert result.record == _cold(edited)


def test_the_splice_makes_no_deep_copy(tmp_path, monkeypatch):
    base, edited, files = _saved_set(tmp_path, count=4)
    snapshot = Snapshot.load(files[0])

    def refuse(*_args, **_kwargs):
        raise AssertionError("deepcopy called inside splice_snapshot")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    monkeypatch.setattr(whatif_module, "deepcopy", refuse)
    spliced = splice_snapshot(snapshot, edited, diff_workloads(base, edited))
    monkeypatch.undo()
    sim = Simulation.resume(spliced)
    sim.run()
    assert sim.run_record() == _cold(edited)


def _small(flops=4e10):
    jobs = [
        {
            "id": jid,
            "submit_time": 25.0 * (jid - 1),
            "num_nodes": 2,
            "application": {"phases": [{"tasks": [{"type": "cpu", "flops": flops}], "iterations": 3}]},
        }
        for jid in range(1, 7)
    ]
    platform = {
        "nodes": {"count": 8, "flops": 1e12},
        "network": {"topology": "star", "bandwidth": 1e10},
    }
    return {"platform": platform, "workload": {"inline": {"jobs": jobs}}, "algorithm": "easy"}


def _through_files(snapshots, tmp_path):
    for index, snapshot in enumerate(snapshots):
        snapshot.save(tmp_path / f"{index:04d}.json")
    return [Snapshot.load(path) for path in sorted(tmp_path.glob("*.json"))]


@pytest.mark.parametrize("saved", [False, True], ids=["in-memory", "from-files"])
def test_checkpoints_of_another_scenario_are_not_resumed_from(saved, tmp_path):
    base = _small()
    edited = copy.deepcopy(base)
    edited["workload"]["inline"]["jobs"][5]["num_nodes"] = 5
    _, own = run_with_snapshots(base, 25)
    _, foreign = run_with_snapshots(_small(flops=9e10), 25)
    if saved:
        foreign = _through_files(foreign, tmp_path / "foreign")
        own = _through_files(own, tmp_path / "own")
    result = whatif(base, edited, snapshots=foreign)
    assert not result.warm
    assert result.reason == "checkpoint was not taken from the base scenario"
    assert result.record == _cold(edited)
    assert whatif(base, edited, snapshots=own).warm
    if saved:  # decided from the header's digest: no spec section was parsed
        assert all(isinstance(s._sections["spec"], bytes) for s in foreign + own)


def test_checkpoints_of_another_simulator_version_are_not_resumed_from(tmp_path):
    base = _small()
    edited = copy.deepcopy(base)
    edited["workload"]["inline"]["jobs"][5]["num_nodes"] = 5
    _, snapshots = run_with_snapshots(base, 25)
    for index, snapshot in enumerate(snapshots):
        path = tmp_path / f"{index:04d}.json"
        snapshot.save(path)
        path.write_bytes(reseal_header(path.read_bytes(), salt="elastisim-snapshot-v0.0.1"))
    skewed = [Snapshot.load(path) for path in sorted(tmp_path.glob("*.json"))]  # they verify
    result = whatif(base, edited, snapshots=skewed)
    assert not result.warm
    assert "another simulator version (elastisim-snapshot-v0.0.1)" in result.reason
    assert result.record == _cold(edited)
