"""The production engine must not change simulation results.

Cohort rows, the single-activity fast path and the scalar max-min loop
are pure performance features: a run's ``Monitor.run_record()`` — the
payload campaign fingerprints and the CI regression gate key on — and its
event count must come out byte-identical on the reference engine
(``reference=True``: every activity an object in a component, numpy
kernel), across rigid, malleable, evolving and on-demand jobs, star and
fat-tree networks, with the invariant checker on.
"""

import json
from pathlib import Path

import pytest

from repro import Simulation
from repro.campaign import load_campaign

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _generated(algorithm, topology="star"):
    """Compute, communication and contended file-system I/O, generated."""
    network = {"topology": topology, "bandwidth": 10e9, "pfs_bandwidth": 1e11}
    if topology == "fat_tree":
        # Leaf uplinks are shared by some of a job's flows only: I/O and
        # exchanges are admitted flow by flow, not as rows.
        network["arity"] = 4
    return {
        "platform": {
            "nodes": {"count": 32, "flops": 1e12},
            "network": network,
            "pfs": {"read_bw": 1e11, "write_bw": 8e10},
        },
        "workload": {
            "generate": {
                "num_jobs": 20,
                "mean_interarrival": 10.0,
                "max_request": 32,
                "mean_runtime": 60.0,
                "malleable_fraction": 0.4,
                "evolving_fraction": 0.2,
                "comm_bytes": 1e6,  # multi-activity components: the kernels have work to agree on
                "input_bytes_per_flop": 1e-5,
                "output_bytes_per_flop": 1e-5,
                "data_per_node": 1e8,
            }
        },
        "algorithm": algorithm,
        "seed": 11,
    }


def _hybrid_corridor():
    """First scenario of the committed corridor study: energy block included."""
    return load_campaign(EXAMPLES / "hybrid_corridor.json")[0].as_record()


def _observed(spec, reference):
    sim = Simulation.from_spec(json.loads(json.dumps(spec)), reference=reference)
    record = sim.run(check_invariants=True).run_record()
    return json.dumps(record, sort_keys=True), sim.env.processed_events, sim


def _assert_engines_agree(spec):
    record, events, production = _observed(spec, reference=False)
    ref_record, ref_events, reference = _observed(spec, reference=True)
    assert record == ref_record
    assert events == ref_events
    # The two runs really took the two sides of every fork.
    ours, theirs = production.monitor.solver, reference.monitor.solver
    assert ours.vector_solves == 0 and ours.cohorts_admitted > 0
    assert theirs.scalar_solves == theirs.slot_solves == theirs.cohorts_admitted == 0
    assert theirs.vector_solves == ours.scalar_solves
    return json.loads(record)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(_generated("easy"), id="easy"),
        pytest.param(_generated("malleable"), id="malleable"),
        pytest.param(_generated("malleable", "fat_tree"), id="fat-tree-pfs"),
        pytest.param(_hybrid_corridor(), id="hybrid-corridor"),
    ],
)
def test_run_record_byte_identical_across_engine_modes(spec):
    record = _assert_engines_agree(spec)
    if "power" in spec["platform"]:
        assert "energy" in record


def test_hybrid_preemption_and_energy_byte_identical_across_modes():
    # On-demand preemption, restart I/O, and the Fraction-integrated
    # energy block must survive the engine choice byte-for-byte.
    from tests.scheduler.test_hybrid import HYBRID_SPEC

    assert "energy" in _assert_engines_agree(HYBRID_SPEC)
