"""Property test: resume from a random checkpoint is byte-identical.

For any fuzz-generated scenario, any checkpoint index, and either engine
(production rows, reference objects), resuming the snapshot — which names
the engine that wrote it — must reproduce the cold run's ``run_record``
and event count exactly.  The engine is swept as a pytest param
(hypothesis shrinks within one); scenario diversity — malleable,
evolving, failures, io, walltime kills — comes from the fuzz generator's
own draws across the seed range.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Simulation
from repro.fuzz import generate_scenario

from tests.replay.helpers import ENGINES, fingerprint, json_roundtrip


def _check(seed, pick, reference, widen=None):
    """Cold / snapshot / resume comparison; True when a checkpoint was resumed.

    ``widen`` sets the scenario's node count (star scenarios only) so the
    same comparison runs on a machine the workload touches a corner of.
    """
    scenario = generate_scenario(seed, algorithm="easy")
    if widen is not None:
        scenario["platform"]["nodes"]["count"] = widen
    cold = Simulation.from_spec(json.loads(json.dumps(scenario)), reference=reference)
    cold.run()
    cold_fp, cold_events = fingerprint(cold), cold.env.processed_events

    snapshots = []
    snapped = Simulation.from_spec(json.loads(json.dumps(scenario)), reference=reference)
    snapped.run(snapshot_every=40, snapshot_callback=snapshots.append)
    assert fingerprint(snapped) == cold_fp
    if not snapshots:
        return False  # run too short for a quiet boundary at this cadence

    snap = snapshots[int(pick * len(snapshots)) % len(snapshots)]
    resumed = Simulation.resume(json_roundtrip(snap))
    assert resumed.batch.model.reference is reference
    resumed.run()
    assert fingerprint(resumed) == cold_fp
    assert resumed.env.processed_events == cold_events
    return True


@pytest.mark.parametrize("reference", ENGINES)
@given(seed=st.integers(min_value=0, max_value=60), pick=st.floats(0.0, 0.999))
@settings(max_examples=15, deadline=None)
def test_random_checkpoint_resume_is_byte_identical(reference, seed, pick):
    _check(seed, pick, reference)
