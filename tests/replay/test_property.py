"""Property test: resume from a random checkpoint is byte-identical.

For any fuzz-generated scenario, any checkpoint index, and any engine
mode (array/object state x compiled/interpreted expressions), resuming
the snapshot must reproduce the cold run's ``run_record`` and event
count exactly.  Engine pins are swept as pytest params (hypothesis
shrinks within one mode); scenario diversity — malleable, evolving,
failures, io, walltime kills — comes from the fuzz generator's own
draws across the seed range.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Simulation
from repro.expressions import compiled_enabled, set_compiled_enabled
from repro.fuzz import generate_scenario
from repro.sharing import array_engine_enabled, set_array_engine_enabled

from tests.replay.helpers import fingerprint, json_roundtrip

MODES = [
    pytest.param(True, True, id="array-compiled"),
    pytest.param(True, False, id="array-interpreted"),
    pytest.param(False, True, id="object-compiled"),
    pytest.param(False, False, id="object-interpreted"),
]


def _check(seed, pick, array, compiled, widen=None):
    """Cold / snapshot / resume comparison; True when a checkpoint was resumed.

    ``widen`` sets the scenario's node count (star scenarios only) so the
    same comparison runs on a machine the workload touches a corner of.
    """
    old_array, old_compiled = array_engine_enabled(), compiled_enabled()
    set_array_engine_enabled(array)
    set_compiled_enabled(compiled)
    try:
        scenario = generate_scenario(seed, algorithm="easy")
        if widen is not None:
            scenario["platform"]["nodes"]["count"] = widen
        cold = Simulation.from_spec(json.loads(json.dumps(scenario)))
        cold.run()
        cold_fp, cold_events = fingerprint(cold), cold.env.processed_events

        snapshots = []
        snapped = Simulation.from_spec(json.loads(json.dumps(scenario)))
        snapped.run(snapshot_every=40, snapshot_callback=snapshots.append)
        assert fingerprint(snapped) == cold_fp
        if not snapshots:
            return False  # run too short for a quiet boundary at this cadence

        snap = snapshots[int(pick * len(snapshots)) % len(snapshots)]
        resumed = Simulation.resume(json_roundtrip(snap))
        resumed.run()
        assert fingerprint(resumed) == cold_fp
        assert resumed.env.processed_events == cold_events
        return True
    finally:
        set_array_engine_enabled(old_array)
        set_compiled_enabled(old_compiled)


@pytest.mark.parametrize("array,compiled", MODES)
@given(seed=st.integers(min_value=0, max_value=60), pick=st.floats(0.0, 0.999))
@settings(max_examples=15, deadline=None)
def test_random_checkpoint_resume_is_byte_identical(array, compiled, seed, pick):
    _check(seed, pick, array, compiled)
