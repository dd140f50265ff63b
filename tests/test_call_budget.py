"""Deterministic cost gate: Python-level calls per simulated event.

Wall-clock on a shared box cannot carry a verdict; the number of function
calls a fixed run makes can — in a fresh process it repeats exactly from run to run.  The
scenario is E5's shape (rigid jobs under EASY on 128 nodes), where the
engine's per-event bookkeeping is the whole cost: ~30 calls per event
when every node of a task fan-out had its own solver row, horizon entry
and queue entry, ~16 with one cohort row and one event run per fan-out.
The budget leaves room for interpreter-version differences in which C
calls cProfile sees, not for a per-node loop coming back.
"""

from repro import Simulation

from benchmarks.common import evaluation_workload, profiled_calls, reference_platform

BUDGET = 20.0


def _simulation():
    jobs = evaluation_workload(
        num_jobs=60,
        seed=3,
        num_nodes=128,
        max_request=64,
        comm_bytes=0.0,
        mean_interarrival=10.0,
    )
    return Simulation(reference_platform(num_nodes=128), jobs, algorithm="easy")


def test_rigid_easy_run_stays_within_its_call_budget():
    sim = _simulation()
    calls = profiled_calls(sim.run)
    events = sim.env.processed_events
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 60
    assert events > 10_000
    assert calls / events <= BUDGET, f"{calls / events:.2f} calls per event"

