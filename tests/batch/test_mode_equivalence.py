"""Engine fast paths must not change simulation results.

The compiled-expression pipeline, the vectorized max-min kernel, and the
struct-of-arrays slot engine are pure performance features: a run's
``Monitor.run_record()`` — the payload campaign fingerprints and the CI
regression gate key on — must serialise byte-identically whichever
combination of (compiled | interpreted expressions) x (scalar |
vectorized solver) x (array | object engine) is active, across
rigid, malleable, and evolving jobs, with the invariant checker on.
"""

import json

import pytest

import repro.sharing.model as sharing_model
from repro import Simulation, platform_from_dict
from repro.expressions import set_compiled_enabled
from repro.sharing import array_engine_enabled, set_array_engine_enabled
from repro.workload import WorkloadSpec, generate_workload

PLATFORM_SPEC = {
    "nodes": {"count": 32, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 10e9, "pfs_bandwidth": 1e11},
    "pfs": {"read_bw": 1e11, "write_bw": 8e10},
}

#: (compiled expressions?, DEFAULT_VECTORIZE, array engine?) — None is
#: the shipped default (the scalar loop, same run as False); the first
#: entry is the reference configuration (everything on/default).
MODES = [
    (True, None, True),
    (True, None, False),
    (True, True, False),
    (False, False, False),
]


def _run_record(compiled: bool, vectorize, array: bool, algorithm: str) -> str:
    platform = platform_from_dict(PLATFORM_SPEC)
    jobs = generate_workload(
        WorkloadSpec(
            num_jobs=20,
            mean_interarrival=10.0,
            max_request=32,
            mean_runtime=60.0,
            malleable_fraction=0.4,
            evolving_fraction=0.2,
            comm_bytes=1e6,  # multi-activity components: the kernels have work to agree on
            input_bytes_per_flop=1e-5,
            output_bytes_per_flop=1e-5,
            data_per_node=1e8,
        ),
        seed=11,
    )
    set_compiled_enabled(compiled)
    old_vectorize = sharing_model.DEFAULT_VECTORIZE
    sharing_model.DEFAULT_VECTORIZE = vectorize
    old_array = array_engine_enabled()
    set_array_engine_enabled(array)
    try:
        monitor = Simulation(platform, jobs, algorithm=algorithm).run(
            check_invariants=True
        )
    finally:
        set_compiled_enabled(True)
        sharing_model.DEFAULT_VECTORIZE = old_vectorize
        set_array_engine_enabled(old_array)
    return json.dumps(monitor.run_record(), sort_keys=True)


@pytest.mark.parametrize("algorithm", ["easy", "malleable"])
def test_run_record_byte_identical_across_engine_modes(algorithm):
    reference = _run_record(*MODES[0], algorithm)
    for compiled, vectorize, array in MODES[1:]:
        assert _run_record(compiled, vectorize, array, algorithm) == reference, (
            f"run_record diverged for compiled={compiled} "
            f"vectorize={vectorize} array={array} algorithm={algorithm}"
        )


def test_hybrid_preemption_and_energy_byte_identical_across_modes():
    # On-demand preemption, restart I/O, and the Fraction-integrated
    # energy block must survive every engine mode byte-for-byte.
    from repro.fuzz.oracles import run_scenario_record

    from tests.scheduler.test_hybrid import HYBRID_SPEC

    reference = run_scenario_record(
        HYBRID_SPEC,
        compiled=MODES[0][0],
        vectorize=MODES[0][1],
        array=MODES[0][2],
        check_invariants=True,
    )
    assert "energy" in reference
    reference_bytes = json.dumps(reference, sort_keys=True)
    for compiled, vectorize, array in MODES[1:]:
        record = run_scenario_record(
            HYBRID_SPEC,
            compiled=compiled,
            vectorize=vectorize,
            array=array,
            check_invariants=True,
        )
        assert json.dumps(record, sort_keys=True) == reference_bytes, (
            f"hybrid run_record diverged for compiled={compiled} "
            f"vectorize={vectorize} array={array}"
        )
