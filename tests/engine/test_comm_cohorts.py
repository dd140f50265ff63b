"""Communication exchanges as cohorts: flows on private routes are one row.

A ring or pairwise step on a star gives every flow its own ``up[src]`` /
``down[dst]`` pair, so the array engine admits the whole exchange as one
cohort row of two-resource members, and a gather — every flow into the
root's ``down`` — as one row of that link's component; on a fat tree
(switch links shared by some flows only, unequal hop counts) and for
all-to-all it must fall back to one component per flow.  Either way the object engine is the reference: same
``run_record``, same event count, whatever kills a job mid-exchange or
lands a second user on one member's link.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Simulation
from repro.monitoring import SolverStats
from repro.sharing import Fanout


def _platform(topology, nodes=16):
    network = {"topology": topology, "bandwidth": 1e9, "latency": 1e-6, "pfs_bandwidth": 4e9}
    if topology == "fat_tree":
        network["arity"] = 4
    return {
        "name": f"comm-{topology}",
        "nodes": {"count": nodes, "flops": 1e12},
        "network": network,
        "pfs": {"read_bw": 2e9, "write_bw": 2e9},
    }


def _run(spec, reference=False):
    sim = Simulation.from_spec(json.loads(json.dumps(spec)), reference=reference)
    sim.run(check_invariants=True)
    return sim


def _observed(sim):
    return json.dumps(sim.monitor.run_record(), sort_keys=True), sim.env.processed_events


def _exchange(pattern, nbytes, iterations=2):
    return {
        "iterations": iterations,
        "tasks": [
            {"type": "cpu", "flops": 4e12},
            {"type": "comm", "bytes": nbytes, "pattern": pattern},
        ],
    }


def _spec(topology, jobs):
    return {
        "platform": _platform(topology),
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


def _job(jid, nodes, phases, **extra):
    return {
        "id": jid,
        "submit_time": 0.0,
        "num_nodes": nodes,
        "application": {"name": f"app{jid}", "phases": phases},
        **extra,
    }


@st.composite
def _scenarios(draw):
    topology = draw(st.sampled_from(["star", "star", "fat_tree"]))
    jobs = []
    for jid in range(1, draw(st.integers(2, 5)) + 1):
        nodes = draw(st.integers(2, 8))
        phases = []
        for _ in range(draw(st.integers(1, 2))):
            pattern = draw(st.sampled_from(["ring", "ring", "pairwise", "alltoall", "gather"]))
            nbytes = draw(st.sampled_from([1e6, 2.5e8, 1e9]))
            phase = _exchange(pattern, nbytes, draw(st.integers(1, 3)))
            if draw(st.booleans()):
                # A file-system write beside the exchange: its flow out of
                # node i is the second user of ``up[i]``.
                phase = {
                    "parallel": True,
                    "iterations": phase["iterations"],
                    "tasks": [
                        {"type": "comm", "bytes": nbytes, "pattern": pattern},
                        {"type": "pfs_write", "bytes": draw(st.sampled_from([1e8, 4e9]))},
                    ],
                }
            phases.append(phase)
        extra = {"submit_time": draw(st.sampled_from([0.0, 0.3, 2.0]))}
        if draw(st.integers(0, 3)) == 0:
            extra["walltime"] = draw(st.sampled_from([0.5, 4.2, 9.0]))  # killed mid-flight
        jobs.append(_job(jid, nodes, phases, **extra))
    return _spec(topology, jobs)


@given(_scenarios())
@settings(max_examples=60, deadline=None)
def test_property_exchanges_match_the_object_engine(spec):
    assert _observed(_run(spec)) == _observed(_run(spec, reference=True))


@pytest.mark.parametrize("pattern, flows", [("ring", 8), ("pairwise", 8), ("alltoall", 2)])
def test_star_exchange_is_one_row_of_two_resource_members(pattern, flows):
    nodes = 2 if pattern == "alltoall" else 8
    spec = _spec("star", [_job(1, nodes, [_exchange(pattern, 1e9, iterations=3)])])
    sim = _run(spec)
    stats = SolverStats.from_model(sim.batch.model)
    # Per iteration: one compute row and one exchange row.
    assert stats.cohorts_admitted == 6
    assert stats.cohort_members == 3 * (nodes + flows)
    assert stats.cohorts_dissolved == 0
    assert stats.slot_solves == stats.fast_solves == stats.resolves
    assert _observed(sim) == _observed(_run(spec, reference=True))


@pytest.mark.parametrize("topology, pattern", [("fat_tree", "ring"), ("star", "alltoall")])
def test_shared_links_fall_back_to_one_component_per_flow(topology, pattern):
    spec = _spec(topology, [_job(1, 8, [_exchange(pattern, 1e9)])])
    sim = _run(spec)
    stats = SolverStats.from_model(sim.batch.model)
    assert stats.cohorts_admitted == 2  # the compute fan-outs only
    assert stats.slot_solves < stats.resolves
    assert _observed(sim) == _observed(_run(spec, reference=True))


def test_star_gather_is_one_row_of_the_roots_link():
    """Seven flows ``up[i]`` → ``down[root]``: the second hop is the same
    resource in every route, so the step is one row of that link's
    component — solved as a component, not as slots."""
    spec = _spec("star", [_job(1, 8, [_exchange("gather", 1e9)])])
    sim = _run(spec)
    stats = SolverStats.from_model(sim.batch.model)
    assert stats.cohorts_admitted == 4 and stats.cohort_members == 2 * (8 + 7)
    assert stats.cohorts_dissolved == 0
    assert stats.scalar_solves == 2 and stats.max_solve_scope == 7
    assert _observed(sim) == _observed(_run(spec, reference=True))


def _running_ids(sim):
    """``_seq`` (relative to the oldest) → component id of everything
    running, read off the model without asking a handle for its members."""
    model = sim.batch.model
    ids = {}
    for act, comp in model._comp_of.items():
        # A row of a component stands for all its members, in it.
        ids.update((act._seq + k, comp.id) for k in range(len(act) if type(act) is Fanout else 1))
    table = model._array
    if table is not None:
        for owner, n, cid in zip(table.owner, table.n, table.cid):
            if owner is not None:
                ids.update((owner._seq + k, cid + k) for k in range(n))
    first = min(ids, default=0)
    return {seq - first: cid for seq, cid in sorted(ids.items())}, model._next_cid


def _stopped_at(spec, reference, until):
    sim = Simulation.from_spec(json.loads(json.dumps(spec)), reference=reference)
    sim.run(until=until)
    return sim


def _killed_mid_flight(spec, kill_at):
    """A walltime kill that lands inside a cohort: the one-pass cancel of
    the handle must leave what the object engine's member loop leaves."""
    sim = _run(spec)
    assert sim.monitor.run_record()["summary"]["killed_jobs"] == 1
    assert SolverStats.from_model(sim.batch.model).cohorts_dissolved == 1
    assert _observed(sim) == _observed(_run(spec, reference=True))
    for until in (kill_at - 0.25, kill_at + 0.25):
        array, reference = (_stopped_at(spec, flag, until) for flag in (False, True))
        assert array.env.processed_events == reference.env.processed_events
        ids, next_cid = _running_ids(array)
        assert (ids, next_cid) == _running_ids(reference) and ids
        dissolved = SolverStats.from_model(array.batch.model).cohorts_dissolved
        assert dissolved == (until > kill_at)  # intact until the kill


def test_job_killed_mid_exchange_dissolves_its_row():
    # 1 s of compute, then a 1 s ring step the walltime cuts in half.
    spec = _spec(
        "star",
        [
            _job(1, 8, [_exchange("ring", 1e9, iterations=1)], walltime=5.5),
            _job(2, 4, [_exchange("ring", 1e9, iterations=4)]),  # still going at the kill
        ],
    )
    spec["workload"]["inline"]["jobs"][0]["application"]["phases"][0]["tasks"][0]["flops"] = 4e13
    _killed_mid_flight(spec, kill_at=5.5)


def test_job_killed_mid_compute_cohort_matches_the_member_loop():
    # Job 1's 8-wide compute fan-out would take 10 s; job 2 keeps iterating
    # beside it, so ids keep being drawn on both engines.
    spec = _spec(
        "star",
        [
            _job(1, 8, [_exchange("ring", 1e9, iterations=1)], walltime=4.5),
            _job(2, 4, [_exchange("ring", 1e9, iterations=12)]),
        ],
    )
    spec["workload"]["inline"]["jobs"][0]["application"]["phases"][0]["tasks"][0]["flops"] = 8e13
    _killed_mid_flight(spec, kill_at=4.5)


def test_second_user_on_one_members_link_dissolves_and_promotes():
    # Job 2's lone writer shares nothing with job 1; job 1's own write
    # task, started beside its ring, takes ``up[i]`` of every member.
    phase = {
        "parallel": True,
        "tasks": [
            {"type": "comm", "bytes": 1e9, "pattern": "ring"},
            {"type": "pfs_write", "bytes": 8e8},
        ],
    }
    spec = _spec("star", [_job(1, 8, [phase]), _job(2, 1, [_exchange("ring", 1e9)])])
    sim = _run(spec)
    stats = SolverStats.from_model(sim.batch.model)
    assert stats.cohorts_dissolved == 1
    assert stats.merges > 0  # the promoted members joined the writers' component
    assert _observed(sim) == _observed(_run(spec, reference=True))
