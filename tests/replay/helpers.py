"""Shared byte-identity checks for the snapshot/resume test suite.

The contract under test (docs/REPLAY.md): a run resumed from any
checkpoint must produce the same ``run_record`` and the same
``processed_events`` count as the uninterrupted cold run — byte for
byte, after a JSON round-trip of the snapshot document.
"""

import hashlib
import json

import pytest

from repro.batch import Simulation
from repro.replay import Snapshot

#: ``reference`` values: array rows in production, objects on the reference
#: engine; expressions are compiled on both.
ENGINES = [
    pytest.param(False, id="array-compiled"),
    pytest.param(True, id="object-compiled"),
]


def fingerprint(sim) -> str:
    return json.dumps(sim.monitor.run_record(), sort_keys=True)


def cold_run(spec, reference=False):
    """Cold-run ``spec``; return (fingerprint, processed_events)."""
    sim = Simulation.from_spec(json.loads(json.dumps(spec)), reference=reference)
    sim.run()
    return fingerprint(sim), sim.env.processed_events


def snapshot_run(spec, snapshot_every, reference=False):
    """Run ``spec`` with checkpoints; return (fingerprint, events, snapshots)."""
    snapshots = []
    sim = Simulation.from_spec(json.loads(json.dumps(spec)), reference=reference)
    sim.run(snapshot_every=snapshot_every, snapshot_callback=snapshots.append)
    return fingerprint(sim), sim.env.processed_events, snapshots


def json_roundtrip(snapshot):
    """The snapshot as it would come back from disk."""
    return Snapshot.from_dict(json.loads(json.dumps(snapshot.to_dict())))


def reseal_header(data, **fields):
    """The file with header ``fields`` replaced (``None``: removed) and the
    header's own digest recomputed — a whole file that says something else."""
    line, _, body = data.partition(b"\n")
    header = {**json.loads(line), **fields}
    header = {k: v for k, v in header.items() if v is not None and k != "sha256"}
    header["sha256"] = hashlib.sha256(json.dumps(header).encode()).hexdigest()
    return json.dumps(header).encode() + b"\n" + body


def assert_resume_identical(spec, snapshot_every=40, roundtrip=True, reference=False):
    """Resume every checkpoint of ``spec``; assert byte-identity throughout.

    ``reference`` is the engine of the cold and the checkpointed run; the
    resumed ones are told nothing and must take it from the snapshot.
    Returns the number of snapshots exercised so callers can assert the
    scenario actually produced resume points.
    """
    cold_fp, cold_events = cold_run(spec, reference)
    snap_fp, snap_events, snapshots = snapshot_run(spec, snapshot_every, reference)
    assert snap_fp == cold_fp, "taking snapshots perturbed the run"
    assert snap_events == cold_events
    for snap in snapshots:
        restored = json_roundtrip(snap) if roundtrip else snap
        sim = Simulation.resume(restored)
        assert sim.batch.model.reference is reference
        sim.run()
        assert fingerprint(sim) == cold_fp, (
            f"resume from t={snap.time:g} "
            f"({snap.processed_events} events) diverged"
        )
        assert sim.env.processed_events == cold_events
    return len(snapshots)
