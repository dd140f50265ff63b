"""Checkpoints that land while fan-out cohorts are in flight.

A cohort row is captured as the memberless row it is (one compact handle
record, the members' routes as one flat resource list, one set of
scalars — no member is materialised to take the snapshot) and a
dissolved one as its rows of one / promoted components; resuming either
must reproduce the uninterrupted run byte for byte, on either engine,
and ``whatif`` must still take the warm path.  The snapshot *file* is
written atomically and a damaged one is a ``ReplayError``.
"""

import json
import sys
import threading
from copy import deepcopy

import pytest

from repro.batch import Simulation
from repro.des import Environment
from repro.monitoring import SolverStats
from repro.replay import SCHEMA_VERSION, ReplayError, Snapshot, whatif
from repro.replay.snapshot import SidRegistry
from repro.replay.whatif import run_with_snapshots
from repro.sharing import FairShareModel, SharedResource

from tests.replay.helpers import (
    ENGINES,
    assert_resume_identical,
    cold_run,
    fingerprint,
    reseal_header,
    snapshot_run,
)

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


def _cohort_rows(snapshot):
    """(members, resources) of every memberless cohort row in a snapshot."""
    slots = snapshot.state["model"]["slots"]
    return [
        (owner["n"], len(ress))
        for owner, ress in zip(slots["owner"], slots["ress"])
        if isinstance(owner, dict)
    ]


def test_the_scenario_checkpoints_cohorts_whole_and_dissolved():
    _, _, snapshots = snapshot_run(_spec(), 40)
    wide = [snap for snap in snapshots if (64, 64) in _cohort_rows(snap)]
    assert wide
    # One compact record: job 1's 64 members have no activity records.
    for snap in wide:
        assert not [r for r in snap.state["model"]["activities"] if r["payload"][0] == 1]
    # Job 2's members, promoted out of their dissolved cohort, as pairs.
    assert any(
        sum(len(comp["acts"]) == 2 for comp in snap.state["model"]["components"]) == 48
        for snap in snapshots
    )
    sim = Simulation.from_spec(_spec())
    sim.run()
    assert _cohorts(sim.batch.model).cohorts_dissolved == 3


@pytest.mark.parametrize("reference", ENGINES)
def test_resume_from_every_checkpoint_is_byte_identical(reference):
    assert assert_resume_identical(_spec(), snapshot_every=40, reference=reference) >= 5


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
    shapes = {shape for snap in snapshots for shape in _cohort_rows(snap)}
    assert {(32, 64), (16, 32)} <= shapes  # the rings of jobs 1 and 3, whole
    sim = Simulation.from_spec(_exchange_spec())
    sim.run()
    assert sim.monitor.run_record()["summary"]["killed_jobs"] == 1
    assert _cohorts(sim.batch.model).cohorts_dissolved >= 3


@pytest.mark.parametrize("reference", ENGINES)
def test_resume_mid_exchange_is_byte_identical(reference):
    assert assert_resume_identical(_exchange_spec(), snapshot_every=25, reference=reference) >= 5


def _io_spec():
    """Reads and writes contending for a slow file system: rows of the
    hub's component, several at a time, one of them cut short."""
    def loop(iterations, read_bytes, write_bytes):
        return {"iterations": iterations, "tasks": [
            {"type": "pfs_read", "bytes": read_bytes},
            {"type": "cpu", "flops": 2e12},
            {"type": "pfs_write", "bytes": write_bytes}]}

    jobs = [
        {"id": 1, "submit_time": 0.0, "num_nodes": 32,
         "application": {"name": "wide", "phases": [loop(3, 6e11, 3e11)]}},
        {"id": 2, "submit_time": 0.5, "num_nodes": 8,
         "application": {"name": "narrow", "phases": [loop(5, 1e11, 1e11)]}},
        # Killed in its first read.
        {"id": 3, "submit_time": 1.0, "num_nodes": 16, "walltime": 9.0,
         "application": {"name": "cut", "phases": [loop(2, 9e11, 1e11)]}},
        # One node: alone on the hub it is a slot row, in company a row of one.
        {"id": 4, "submit_time": 0.0, "num_nodes": 1,
         "application": {"name": "lone", "phases": [loop(12, 2e10, 1e10)]}},
        *({"id": 10 + k, "submit_time": 1.7 * k, "num_nodes": 1 + k % 2,
           "application": {"name": "small", "phases": [_cpu(1e12, 3)]}}
          for k in range(12)),
    ]
    return {
        "name": "io-resume",
        "platform": {
            "name": "io-resume",
            "nodes": {"count": 64, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10, "latency": 1e-6,
                        "pfs_bandwidth": 4e10},
            "pfs": {"read_bw": 2e10, "write_bw": 2e10},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


def test_the_io_scenario_checkpoints_rows_of_the_hub_whole():
    _, _, snapshots = snapshot_run(_io_spec(), 25)
    rows = [snap.state["model"]["rows"] for snap in snapshots]
    shapes = {(row["n"], len(row["ress"]), len(row["shared"])) for state in rows for row in state}
    # Jobs 1-3 mid-I/O, three resources a member, two of them everyone's;
    # the lone node's route, every hop shared with its one member.
    assert {(32, 96, 2), (8, 24, 2), (16, 48, 2), (1, 3, 3)} <= shapes
    assert max(len(state) for state in rows) >= 3  # several rows on one hub
    for snap in snapshots:
        model = snap.state["model"]
        fans = {f"fan.{row['seq']}" for row in model["rows"]}
        # A row is its record: no activity per member, one entry in its
        # component, one among each shared hop's users, its node links
        # nowhere but in the record.
        assert not [r for r in model["activities"] if r["payload"][1].startswith("pfs")]
        entries = [sid for comp in model["components"] for sid in comp["acts"]]
        assert fans <= set(entries) and len(entries) == len(set(entries))
        listed = {idx for idx, _ in model["res_users"]}
        for row in model["rows"]:
            assert set(row["shared"]) <= listed
            assert not (set(row["ress"]) - set(row["shared"])) & listed
    sim = Simulation.from_spec(_io_spec())
    sim.run()
    assert sim.monitor.run_record()["summary"]["killed_jobs"] == 1
    assert _cohorts(sim.batch.model).cohorts_dissolved == 1  # the kill


@pytest.mark.parametrize("reference", ENGINES)
def test_resume_mid_io_is_byte_identical(reference):
    assert assert_resume_identical(_io_spec(), snapshot_every=25, reference=reference) >= 5


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
    assert any(n > 1 for n, _ in _cohort_rows(used))


def _dissolved_rows_survive_capture_and_restore(hops):
    """Model level: cancel one member of a cohort, checkpoint the 15 rows
    of one (``hops`` resources each) it leaves behind, restore, and finish
    at the same instants."""

    def build():
        env = Environment()
        model = FairShareModel(env)
        resources = [SharedResource(f"r{i}", 3.0) for i in range(16 * hops)]
        return env, model, resources

    env, model, resources = build()
    handle = model.execute_fanout(1000.0, list(resources), ("job", "task"), hops=hops)
    handle.done.defuse()  # the cancellation below fails the all-of
    env.run(until=100.0)
    acts = handle.activities
    model.cancel(acts[5])
    env.run(until=101.0)
    assert _cohorts(model).cohorts_dissolved == 1
    assert sum(a is not None for a in model._array.owner) == 15
    assert {len(r) for r in model._array.ress if r is not None} == {hops}

    registry = SidRegistry()
    state = model.capture_state(registry, {r: i for i, r in enumerate(resources)})
    queue = env.capture_state(registry)
    state, queue = json.loads(json.dumps([state, queue]))

    env2, model2, resources2 = build()
    registry2 = SidRegistry()
    model2.restore_state(state, registry2, resources2)
    env2.restore_state(queue, registry2)
    restored = sorted(model2.materialise(), key=lambda a: a._seq)
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
    assert doc["schema_version"] == SCHEMA_VERSION == 6
    doc["schema_version"] = 1  # the per-activity slot layout of older builds
    with pytest.raises(ReplayError, match="schema version 1 not supported"):
        Snapshot.from_dict(doc)


def _refused_with_the_one_line_message(tmp_path, version):
    _, _, snapshots = snapshot_run(_spec(), 200)
    doc = snapshots[0].to_dict()
    doc["schema_version"] = version
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ReplayError) as caught:
        Snapshot.load(path)
    message = str(caught.value)
    assert message.endswith(
        f"snapshot schema version {version} not supported (expected 6)"
    )
    assert "\n" not in message


def test_schema_2_files_are_refused_with_the_one_line_message(tmp_path):
    # rows listing their members, one record each
    _refused_with_the_one_line_message(tmp_path, 2)


def test_schema_3_files_are_refused_with_the_one_line_message(tmp_path):
    # no ``rows``: components and ``res_users`` name activities only
    _refused_with_the_one_line_message(tmp_path, 3)


def test_schema_4_files_are_refused_with_the_one_line_message(tmp_path):
    # three engine flags in the model state where ``reference`` is
    _refused_with_the_one_line_message(tmp_path, 4)


def test_schema_5_files_are_refused_with_the_one_line_message(tmp_path):
    # the whole document as one JSON object: no header, no sealed sections
    _refused_with_the_one_line_message(tmp_path, 5)


@pytest.mark.parametrize("reference", ENGINES)
def test_a_snapshot_file_resumes_on_the_engine_that_wrote_it(reference, tmp_path):
    _, _, snapshots = snapshot_run(_io_spec(), 25, reference)
    snap = snapshots[len(snapshots) // 2]
    assert snap.state["model"]["reference"] is reference
    assert not {"partition", "vectorize", "array"} & set(snap.state["model"])
    path = tmp_path / "snap.json"
    snap.save(path)
    sim = Simulation.resume(Snapshot.load(path))  # told nothing but the file
    assert sim.batch.model.reference is reference
    sim.run()
    # Whichever engine wrote it: the production cold run, byte for byte.
    assert (fingerprint(sim), sim.env.processed_events) == cold_run(_io_spec())


def _flip_digit_in_line(number):
    """One digit changed: the line is still valid JSON, of the same length —
    the damage the pre-digest loader let through."""

    def damage(data):
        lines = data.split(b"\n")
        start = sum(len(line) + 1 for line in lines[:number])
        at = next(
            i for i in range(start + len(lines[number]) // 2, len(data)) if data[i : i + 1].isdigit()
        )
        swap = b"7" if data[at : at + 1] != b"7" else b"3"
        assert json.loads((data[:at] + swap + data[at + 1 :]).split(b"\n")[number])
        return data[:at] + swap + data[at + 1 :]

    return damage


def _swap_section_lines(data):
    header, spec, state, last = data.split(b"\n")
    return b"\n".join([header, state, spec, last])


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
        pytest.param(lambda data: data[:-1], id="last-newline-missing"),
        pytest.param(lambda data: data + b"{}\n", id="trailing-bytes"),
        pytest.param(lambda data: b"", id="empty"),
        pytest.param(lambda data: b"snapshot? no.", id="not-json"),
        pytest.param(lambda data: b"[1, 2, 3]\n" + data.partition(b"\n")[2], id="not-an-object"),
        pytest.param(lambda data: reseal_header(data, sections=None), id="key-missing"),
        pytest.param(lambda data: reseal_header(data, finished_jobs=None), id="header-key-missing"),
        pytest.param(lambda data: reseal_header(data, sections=[1, 2]), id="header-key-mistyped"),
        pytest.param(_flip_digit_in_line(0), id="digit-flipped-in-header"),
        pytest.param(_flip_digit_in_line(1), id="digit-flipped-in-spec"),
        pytest.param(_flip_digit_in_line(2), id="digit-flipped-in-state"),
        pytest.param(_swap_section_lines, id="section-lines-swapped"),
    ],
)
def test_a_damaged_snapshot_file_is_a_replay_error(tmp_path, damage):
    """Caught by ``Snapshot.load`` itself, before any section is parsed."""
    _, _, snapshots = snapshot_run(_spec(), 200)
    path = tmp_path / "snap.json"
    snapshots[0].save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ReplayError, match="snap.json"):
        Snapshot.load(path)


def test_every_truncation_of_a_snapshot_file_is_a_replay_error(tmp_path):
    _, _, snapshots = snapshot_run(_spec(), 200)
    path = tmp_path / "snap.json"
    snapshots[0].save(path)
    data = path.read_bytes()
    header_end = data.index(b"\n")
    # Every length through the header, then a stride through the sections.
    lengths = [*range(header_end + 2), *range(header_end + 2, len(data), 97)]
    for length in lengths:
        path.write_bytes(data[:length])
        with pytest.raises(ReplayError, match="snap.json"):
            Snapshot.load(path)
    path.write_bytes(data)
    assert Snapshot.load(path).to_dict() == snapshots[0].to_dict()


def test_save_replaces_the_file_atomically(tmp_path, monkeypatch):
    _, _, snapshots = snapshot_run(_spec(), 200)
    first, second = snapshots[0], snapshots[1]
    path = tmp_path / "snap.json"
    first.save(path)
    assert Snapshot.load(path).processed_events == first.processed_events
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    # A writer that dies mid-document leaves the old file whole and no
    # debris behind.
    import repro._atomic as module

    def dying_dumps(doc, **options):
        raise OSError("disk full")

    monkeypatch.setattr(module.json, "dumps", dying_dumps)
    with pytest.raises(OSError, match="disk full"):
        second.save(path)
    monkeypatch.undo()
    assert Snapshot.load(path).processed_events == first.processed_events
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    # The rename is the commit point: until it happens readers see `first`.
    seen = []
    real_replace = module.os.replace

    def watching_replace(src, dst):
        seen.append(Snapshot.load(dst).processed_events)
        real_replace(src, dst)

    monkeypatch.setattr(module.os, "replace", watching_replace)
    second.save(path)
    assert seen == [first.processed_events]
    assert Snapshot.load(path).processed_events == second.processed_events
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


def test_two_threads_saving_one_path_tear_nothing(tmp_path):
    # The temp name used to be shared by every thread of a process: one
    # thread could rename, or truncate, the other's half-written file.
    _, _, snapshots = snapshot_run(_spec(), 200)
    path = tmp_path / "snap.json"
    errors = []

    def hammer(snap):
        try:
            for _ in range(300):
                snap.save(path)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(snap,)) for snap in snapshots[:2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    assert Snapshot.load(path).processed_events in {
        snap.processed_events for snap in snapshots[:2]
    }


def _wide_spec():
    """A 64-wide compute cohort and a 16-member ring in flight at once."""
    ring = {"type": "comm", "bytes": 2e10, "pattern": "ring"}
    jobs = [
        {"id": 1, "submit_time": 0.0, "num_nodes": 64,
         "application": {"name": "wide", "phases": [_cpu(64 * 2e13, 4)]}},
        {"id": 2, "submit_time": 0.0, "num_nodes": 16,
         "application": {"name": "halo", "phases": [
             {"iterations": 6, "tasks": [{"type": "cpu", "flops": 16e12}, ring]}]}},
        *({"id": 10 + k, "submit_time": 1.3 * k, "num_nodes": 1 + k % 2,
           "application": {"name": "small", "phases": [_cpu(1e12, 3)]}}
          for k in range(14)),
    ]
    return {
        "name": "wide-resume",
        "platform": {
            "name": "wide-resume",
            "nodes": {"count": 96, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10, "latency": 1e-6},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


def test_the_wide_scenario_checkpoints_inside_both_cohorts():
    _, _, snapshots = snapshot_run(_wide_spec(), 15)
    shapes = [set(_cohort_rows(snap)) for snap in snapshots]
    assert any((64, 64) in rows for rows in shapes)
    assert any((16, 32) in rows for rows in shapes)


@pytest.mark.parametrize("reference", ENGINES)
def test_resume_inside_wide_cohort_and_exchange_is_byte_identical(reference):
    assert assert_resume_identical(_wide_spec(), snapshot_every=15, reference=reference) >= 5


@pytest.mark.parametrize("spec", [_spec, _wide_spec], ids=["twin", "wide"])
def test_taking_snapshots_materialises_nothing(spec):
    """Capture reads the handle, never the members."""
    plain = Simulation.from_spec(json.loads(json.dumps(spec())))
    plain.run()
    dissolved = _cohorts(plain.batch.model).cohorts_dissolved
    snapshots = []
    sim = Simulation.from_spec(json.loads(json.dumps(spec())))
    sim.run(snapshot_every=15, snapshot_callback=snapshots.append)
    assert len(snapshots) >= 5
    assert _cohorts(sim.batch.model).cohorts_dissolved == dissolved
    if spec is _wide_spec:
        assert dissolved == 0


def test_run_with_snapshots_leaves_cohorts_dissolved_at_zero(monkeypatch):
    from repro.batch import Simulation as simulation_class

    sims = []
    original = simulation_class.from_spec.__func__
    monkeypatch.setattr(
        simulation_class,
        "from_spec",
        classmethod(lambda cls, spec, **kw: sims.append(original(cls, spec, **kw)) or sims[-1]),
    )
    record, snapshots = run_with_snapshots(deepcopy(_wide_spec()), 15)
    assert len(snapshots) >= 5 and record["summary"]["completed_jobs"] == 16
    (sim,) = sims
    stats = _cohorts(sim.batch.model)
    assert stats.cohorts_admitted > 0 and stats.cohorts_dissolved == 0
