"""Checkpoints that land while fan-out cohorts are in flight.

A cohort row is captured as the row it is (member lists, the members'
routes as one flat resource list, one set of scalars) and a dissolved
one as its rows of one / promoted components;
resuming either must reproduce the uninterrupted run byte for byte, in
every engine mode, and ``whatif`` must still take the warm path.
"""

import json
from copy import deepcopy

import pytest

from repro.batch import Simulation
from repro.des import Environment
from repro.expressions import compiled_enabled, set_compiled_enabled
from repro.monitoring import SolverStats
from repro.replay import SCHEMA_VERSION, ReplayError, Snapshot, whatif
from repro.replay.snapshot import SidRegistry
from repro.replay.whatif import run_with_snapshots
from repro.sharing import (
    FairShareModel,
    SharedResource,
    array_engine_enabled,
    set_array_engine_enabled,
)

from tests.replay.helpers import assert_resume_identical, snapshot_run

_cohorts = SolverStats.from_model


def _cpu(flops, iterations):
    return {"tasks": [{"type": "cpu", "flops": flops}], "iterations": iterations}


def _spec():
    jobs = [
        # One 64-member cohort per iteration, 50 s each (flops are per task).
        {"id": 1, "submit_time": 0.0, "num_nodes": 64,
         "application": {"name": "wide", "phases": [_cpu(64 * 5e13, 6)]}},
        # Two compute tasks on the same 48 nodes at once: the second finds
        # the first one's resources occupied and dissolves its cohort.
        {"id": 2, "submit_time": 1.0, "num_nodes": 48,
         "application": {"name": "twin", "phases": [
             {"parallel": True, "iterations": 3,
              "tasks": [{"type": "cpu", "flops": 48 * 3e13, "name": "a"},
                        {"type": "cpu", "flops": 48 * 6e13, "name": "b"}]}]}},
        # Short jobs: their events put checkpoints inside the long tasks.
        *({"id": 10 + k, "submit_time": 7.0 * k, "num_nodes": 2 + k % 3,
           "application": {"name": "small", "phases": [_cpu(4e12, 4)]}}
          for k in range(12)),
    ]
    return {
        "name": "cohort-resume",
        "platform": {
            "name": "cohort-resume",
            "nodes": {"count": 128, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


MODES = [
    pytest.param((True, True), id="array-compiled"),
    pytest.param((True, False), id="array-interpreted"),
    pytest.param((False, True), id="object-compiled"),
    pytest.param((False, False), id="object-interpreted"),
]


@pytest.fixture
def engine_mode(request):
    array, compiled = request.param
    old = array_engine_enabled(), compiled_enabled()
    set_array_engine_enabled(array)
    set_compiled_enabled(compiled)
    yield array
    set_array_engine_enabled(old[0])
    set_compiled_enabled(old[1])


def _rows(snapshot):
    slots = snapshot.state["model"]["slots"]
    return [acts for acts in slots["acts"] if acts is not None]


def test_the_scenario_checkpoints_cohorts_whole_and_dissolved():
    _, _, snapshots = snapshot_run(_spec(), 40)
    assert any(len(acts) == 64 for snap in snapshots for acts in _rows(snap))
    # Job 2's members, promoted out of their dissolved cohort, as pairs.
    assert any(
        sum(len(comp["acts"]) == 2 for comp in snap.state["model"]["components"]) == 48
        for snap in snapshots
    )
    sim = Simulation.from_spec(_spec())
    sim.run()
    assert _cohorts(sim.batch.model).cohorts_dissolved == 3


@pytest.mark.parametrize("engine_mode", MODES, indirect=True)
def test_resume_from_every_checkpoint_is_byte_identical(engine_mode):
    assert assert_resume_identical(_spec(), snapshot_every=40) >= 5


def _exchange_spec():
    """Ring exchanges on a star: rows whose members hold two links each."""
    ring = {"type": "comm", "bytes": 2e10, "pattern": "ring"}  # 2 s a step
    jobs = [
        {"id": 1, "submit_time": 0.0, "num_nodes": 32,
         "application": {"name": "halo", "phases": [
             {"iterations": 5, "tasks": [{"type": "cpu", "flops": 32e12}, ring]}]}},
        # A write beside the ring: second user on every member's uplink.
        {"id": 2, "submit_time": 0.5, "num_nodes": 8,
         "application": {"name": "dump", "phases": [
             {"parallel": True, "iterations": 2,
              "tasks": [ring, {"type": "pfs_write", "bytes": 4e10}]}]}},
        # Killed half-way through its second exchange.
        {"id": 3, "submit_time": 0.0, "num_nodes": 16, "walltime": 5.0,
         "application": {"name": "cut", "phases": [
             {"iterations": 4, "tasks": [{"type": "cpu", "flops": 16e12}, ring]}]}},
        *({"id": 10 + k, "submit_time": 0.9 * k, "num_nodes": 1 + k % 2,
           "application": {"name": "small", "phases": [_cpu(1e12, 3)]}}
          for k in range(12)),
    ]
    return {
        "name": "exchange-resume",
        "platform": {
            "name": "exchange-resume",
            "nodes": {"count": 64, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10, "latency": 1e-6,
                        "pfs_bandwidth": 4e10},
            "pfs": {"read_bw": 2e10, "write_bw": 2e10},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


def test_the_exchange_scenario_checkpoints_two_link_members():
    _, _, snapshots = snapshot_run(_exchange_spec(), 25)
    slots = [snap.state["model"]["slots"] for snap in snapshots]
    shapes = {
        (len(acts), len(ress))
        for table in slots
        for acts, ress in zip(table["acts"], table["ress"])
        if acts is not None
    }
    assert {(32, 64), (16, 32)} <= shapes  # the rings of jobs 1 and 3, whole
    sim = Simulation.from_spec(_exchange_spec())
    sim.run()
    assert sim.monitor.run_record()["summary"]["killed_jobs"] == 1
    assert _cohorts(sim.batch.model).cohorts_dissolved >= 3


@pytest.mark.parametrize("engine_mode", MODES, indirect=True)
def test_resume_mid_exchange_is_byte_identical(engine_mode):
    assert assert_resume_identical(_exchange_spec(), snapshot_every=25) >= 5


def test_whatif_stays_warm_across_cohorts():
    base = _spec()
    record, snapshots = run_with_snapshots(deepcopy(base), 40)
    edited = deepcopy(base)
    late = edited["workload"]["inline"]["jobs"][-1]
    late["application"]["phases"][0]["iterations"] = 6
    result = whatif(base, edited, snapshots=snapshots)
    assert result.warm and result.events_saved > 0
    cold = Simulation.from_spec(json.loads(json.dumps(edited)))
    expected = cold.run().run_record()
    expected["invocations"] = cold.batch.invocations
    assert json.dumps(result.record, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
    # The checkpoint it resumed from really held a cohort in flight.
    used = max(
        (s for s in snapshots if s.processed_events == result.snapshot_events),
        key=lambda s: s.processed_events,
    )
    assert any(len(acts) > 1 for acts in _rows(used))


def _dissolved_rows_survive_capture_and_restore(hops):
    """Model level: cancel one member of a cohort, checkpoint the 15 rows
    of one (``hops`` resources each) it leaves behind, restore, and finish
    at the same instants."""

    def build():
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        resources = [SharedResource(f"r{i}", 3.0) for i in range(16 * hops)]
        return env, model, resources

    env, model, resources = build()
    acts = model.execute_fanout(1000.0, list(resources), ("job", "task"), hops=hops)
    env.run(until=100.0)
    model.cancel(acts[5])
    env.run(until=101.0)
    assert _cohorts(model).cohorts_dissolved == 1
    assert sum(a is not None for a in model._array.acts) == 15
    assert {len(r) for r in model._array.ress if r is not None} == {hops}

    registry = SidRegistry()
    state = model.capture_state(registry, {r: i for i, r in enumerate(resources)})
    queue = env.capture_state(registry)
    state, queue = json.loads(json.dumps([state, queue]))

    env2, model2, resources2 = build()
    registry2 = SidRegistry()
    model2.restore_state(state, registry2, resources2)
    env2.restore_state(queue, registry2)
    restored = sorted(model2.activities, key=lambda a: a._seq)
    order = []
    for act in restored:
        act.done.callbacks.append(lambda e: order.append(e.value._seq))
    env.run()
    env2.run()
    survivors = [a for a in acts if a is not acts[5]]
    assert [a._seq for a in restored] == [a._seq for a in survivors] == order
    assert [a.finished_at.hex() for a in restored] == [
        a.finished_at.hex() for a in survivors
    ]
    assert env2.processed_events == env.processed_events
    assert model2.resolves == model.resolves


def test_rows_of_a_dissolved_cohort_survive_capture_and_restore():
    _dissolved_rows_survive_capture_and_restore(hops=1)


def test_rows_of_a_dissolved_exchange_keep_both_links_across_restore():
    _dissolved_rows_survive_capture_and_restore(hops=2)


def test_version_1_snapshots_are_refused_cleanly():
    _, _, snapshots = snapshot_run(_spec(), 200)
    doc = snapshots[0].to_dict()
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    doc["schema_version"] = 1  # the per-activity slot layout of older builds
    with pytest.raises(ReplayError, match="schema version 1 not supported"):
        Snapshot.from_dict(doc)
