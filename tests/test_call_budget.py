"""Deterministic cost gate: Python-level calls per simulated event.

Wall-clock on a shared box cannot carry a verdict; the number of function
calls a fixed run makes can — in a fresh process it repeats exactly from run to run.  The
scenario is E5's shape (rigid jobs under EASY on 128 nodes), where the
engine's per-event bookkeeping is the whole cost: ~30 calls per event
when every node of a task fan-out had its own solver row, horizon entry
and queue entry, 13.3 with one cohort row and one event run per fan-out
but an ``Activity``, a ``done`` event and an all-of check per member, 8.8
with memberless cohorts (budget: that plus an eighth).  The budget leaves
room for interpreter-version differences in which C calls cProfile sees,
not for a per-member loop coming back.

The second scenario is the small-campaign shape: six jobs iterating
compute + ring exchange on a 16-node star, where every flow used to be
its own component (30.8 calls per event), then one cohort row of member
objects per exchange (22.4), now a memberless one (19.2; the budget is
that plus a fifth).

The third is the contended-I/O shape: forty jobs, half of them malleable,
reading and writing a 20 GB/s file system from a 128-node star under the
``malleable`` scheduler.  With one activity per node and flow in the file
system's component — admitted, solved, integrated and removed one by one —
it cost 28.3 calls per event; with each read or write one row of that
component it costs 20.1 (budget: that plus a fifth), and no row dissolves.

The last gate is on parsing, not running: ``workload_from_dict`` over the
benchmark's quick ``rigid_sched`` workload (60 inline jobs) made 6 491
calls when every field was read by a bare ``float(spec.get(...))``; read
through the input tables — type, finiteness, range, unknown keys — it
makes 5 661.  The budget is the unchecked figure plus a quarter: a reader
that went back to one call per field would be over it.
"""

from repro import Simulation

from benchmarks.common import evaluation_workload, profiled_calls, reference_platform

BUDGET = 9.9
RING_BUDGET = 23.4
IO_BUDGET = 24.2
PARSE_BUDGET = 6491 * 1.25


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
    # The happy path is fully lazy: no fan-out ever got member objects.
    stats = sim.monitor.solver
    assert stats.cohorts_admitted > 500 and stats.cohorts_dissolved == 0


def _ring_spec():
    jobs = [
        {
            "id": k + 1,
            "submit_time": 3.0 * k,
            "num_nodes": nodes,
            "application": {
                "name": f"halo{k}",
                "phases": [
                    {
                        "iterations": 25,
                        "tasks": [
                            {"type": "cpu", "flops": nodes * 1e12},
                            {"type": "comm", "bytes": 1e7, "pattern": "ring"},
                        ],
                    }
                ],
            },
        }
        for k, nodes in enumerate([8, 4, 6, 2, 8, 5])
    ]
    return {
        "platform": {
            "nodes": {"count": 16, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10, "latency": 1e-6},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


def test_ring_exchange_run_stays_within_its_call_budget():
    sim = Simulation.from_spec(_ring_spec())
    calls = profiled_calls(sim.run)
    events = sim.env.processed_events
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 6
    assert events > 3_000
    assert calls / events <= RING_BUDGET, f"{calls / events:.2f} calls per event"
    assert sim.monitor.solver.cohorts_dissolved == 0


def test_contended_io_run_stays_within_its_call_budget():
    jobs = evaluation_workload(
        num_jobs=40,
        seed=3,
        num_nodes=128,
        max_request=32,
        malleable_fraction=0.5,
        comm_bytes=0.0,
        io=True,
        data_per_node=1e9,
        mean_interarrival=10.0,
    )
    platform = reference_platform(num_nodes=128, pfs_read=20e9, pfs_write=16e9)
    sim = Simulation(platform, jobs, algorithm="malleable")
    calls = profiled_calls(sim.run)
    events = sim.env.processed_events
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 40
    assert events > 5_000
    assert calls / events <= IO_BUDGET, f"{calls / events:.2f} calls per event"
    # The file system was shared in earnest, and by rows: every read and
    # write one of them, none ever given members.
    stats = sim.monitor.solver
    assert stats.scalar_solves > 100 and stats.max_solve_scope > 64
    assert stats.cohorts_admitted > 500 and stats.cohorts_dissolved == 0


def test_parsing_an_inline_workload_stays_within_its_call_budget():
    import benchmarks.e2e.gen as gen
    from repro.workload import workload_from_dict

    inline = gen.rigid_sched(3, quick=True)["workload"]["inline"]
    workload_from_dict(inline)  # warm the expression intern cache, as a second scenario finds it
    calls = profiled_calls(lambda: workload_from_dict(inline))
    assert len(inline["jobs"]) == 60
    assert calls <= PARSE_BUDGET, f"{calls} calls to parse 60 jobs"
