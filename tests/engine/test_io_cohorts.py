"""File-system I/O as cohorts: a read or write fan-out is one row of the hub.

Every node of a ``pfs_read`` / ``pfs_write`` task goes through the file
system's link and service — the same two resources in every route — and
its own node link, so the production engine admits the task as one row of
the hub's component (``execute_fanout(..., hops=3)``), next to the rows
of whoever else is reading or writing.  Whatever cuts a job short mid-I/O
or lands a second user on one node's link must leave exactly what the
member-by-member reference engine leaves: the same ``run_record``, the
same event count.
"""

import pytest

from repro.monitoring import SolverStats

from tests.engine.test_comm_cohorts import _job, _observed, _run


def _spec(jobs, algorithm="easy", **sim):
    spec = {
        "platform": {
            "name": "io",
            "nodes": {"count": 16, "flops": 1e12},
            "network": {
                "topology": "star",
                "bandwidth": 1e9,
                "latency": 1e-6,
                "pfs_bandwidth": 4e9,
            },
            "pfs": {"read_bw": 2e9, "write_bw": 2e9},
        },
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": algorithm,
    }
    if sim:
        spec["sim"] = sim
    return spec


def _io_loop(iterations, read_bytes=4e9, write_bytes=2e9, scheduling_point=False):
    """Read, compute, write — a second or more of contended I/O each way."""
    return {
        "iterations": iterations,
        "scheduling_point": scheduling_point,
        "tasks": [
            {"type": "pfs_read", "bytes": read_bytes},
            {"type": "cpu", "flops": 2e12},
            {"type": "pfs_write", "bytes": write_bytes},
        ],
    }


def _identical_in_every_mode(spec):
    """Run ``spec`` on both engines; returns the production run."""
    sim, reference = _run(spec), _run(spec, reference=True)
    assert _observed(sim) == _observed(reference)
    ours, theirs = (SolverStats.from_model(s.batch.model) for s in (sim, reference))
    for counter in (
        "resolves",
        "solve_events",
        "solved_activities",
        "max_solve_scope",
        "merges",
        "splits",
        "fast_solves",
    ):
        assert getattr(ours, counter) == getattr(theirs, counter), counter
    # The same multi-activity solves, by the scalar loop here and the
    # numpy kernel there.
    assert ours.scalar_solves == theirs.vector_solves
    assert ours.vector_solves == theirs.scalar_solves == 0
    return sim


def test_contended_io_runs_as_rows_and_nothing_dissolves():
    spec = _spec(
        [
            _job(1, 8, [_io_loop(3)]),
            _job(2, 4, [_io_loop(4, read_bytes=1e9)]),
            _job(3, 1, [_io_loop(5, read_bytes=5e8)], submit_time=0.5),
        ]
    )
    sim = _identical_in_every_mode(spec)
    stats = SolverStats.from_model(sim.batch.model)
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 3
    # Three fan-outs per iteration, each one row: 12 iterations in all.
    assert stats.cohorts_admitted == 36 and stats.cohorts_dissolved == 0
    assert stats.cohort_members == 3 * (3 * 8 + 4 * 4 + 5 * 1)
    assert stats.scalar_solves > 0 and stats.max_solve_scope == 13


def test_walltime_kill_mid_read_cancels_the_row_whole():
    spec = _spec(
        [
            _job(1, 8, [_io_loop(1, read_bytes=4e10)], walltime=6.0),
            _job(2, 4, [_io_loop(6, read_bytes=1e9)]),  # still at it at the kill
        ]
    )
    sim = _identical_in_every_mode(spec)
    assert sim.monitor.run_record()["summary"]["killed_jobs"] == 1
    # The killed read is the one cohort that ever got members.
    assert SolverStats.from_model(sim.batch.model).cohorts_dissolved == 1


def test_shrink_ordered_mid_read_is_applied_after_it():
    # Job 1 holds 12 of 16 nodes; job 2 needs 8 and arrives while job 1
    # reads: the scheduler orders the shrink then, the job applies it at
    # the scheduling point that follows its write.
    spec = _spec(
        [
            _job(
                1,
                12,
                [_io_loop(4, read_bytes=1.2e10, scheduling_point=True)],
                type="malleable",
                min_nodes=4,
                max_nodes=12,
            ),
            _job(2, 8, [_io_loop(2)], submit_time=1.5),
        ],
        algorithm="malleable",
    )
    spec["workload"]["inline"]["jobs"][0]["application"]["data_per_node"] = 1e8
    sim = _identical_in_every_mode(spec)
    summary = sim.monitor.run_record()["summary"]
    assert summary["completed_jobs"] == 2 and summary["total_reconfigurations"] >= 1
    assert SolverStats.from_model(sim.batch.model).cohorts_dissolved == 0


@pytest.mark.parametrize("requeue", [False, True])
def test_node_failure_mid_read(requeue):
    sim_block = {"failures": {"trace": [{"time": 2.5, "node": 3, "downtime": 20.0}]}}
    if requeue:
        sim_block.update(requeue_on_failure=True, max_requeues=1)
    spec = _spec(
        [
            _job(1, 8, [_io_loop(2, read_bytes=2e10)]),  # node 3 is one of its eight
            _job(2, 4, [_io_loop(6, read_bytes=1e9)]),
        ],
        **sim_block,
    )
    sim = _identical_in_every_mode(spec)
    summary = sim.monitor.run_record()["summary"]
    assert summary["killed_jobs"] == 1
    assert summary["completed_jobs"] == (2 if requeue else 1)


@pytest.mark.parametrize("order", ["ring-first", "write-first"])
def test_ring_step_beside_a_write_shares_every_nodes_uplink(order):
    """Both use ``up[i]`` of every node: whichever starts second finds
    the first one's private hops busy, starts flow by flow, and each flow
    singles a member of the first out — the first dissolves, once."""
    tasks = [
        {"type": "comm", "bytes": 1e9, "pattern": "ring"},
        {"type": "pfs_write", "bytes": 8e9},
    ]
    if order == "write-first":
        tasks.reverse()
    phase = {"parallel": True, "iterations": 2, "tasks": tasks}
    spec = _spec(
        [
            _job(1, 8, [phase]),
            _job(2, 4, [_io_loop(5, write_bytes=4e9)]),  # rows on the same hub throughout
        ]
    )
    sim = _identical_in_every_mode(spec)
    stats = SolverStats.from_model(sim.batch.model)
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 2
    assert stats.cohorts_dissolved == 2  # one per iteration, job 2's rows never
    # Ring members singled out first are components of their own for the
    # writers to merge; ring flows arriving second walk into the hub's.
    assert (stats.merges > 0) == (order == "ring-first")
