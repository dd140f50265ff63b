"""Fan-out cohorts: one table row for n identical simple activities.

The array engine admits a task fan-out — or an exchange of flows over
private routes — as a single cohort row and dissolves it the moment one
member is singled out; the object engine (``array_engine=False``) runs
every member as its own component and is the reference.  Both must agree
on everything observable, step by step.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Simulation
from repro.des import EmptySchedule, Environment
from repro.monitoring import SolverStats
from repro.sharing import Activity, ActivityCancelled, FairShareModel, SharedResource


COUNTERS = (
    "resolves",
    "solve_events",
    "solved_activities",
    "max_solve_scope",
    "merges",
    "splits",
)


#: The cohort tallies live in the one stats surface, ``monitor.solver``.
_cohorts = SolverStats.from_model


class _World:
    """One engine's model, the activities it started and what completed."""

    def __init__(self, array, capacities):
        self.env = Environment()
        self.model = FairShareModel(self.env, array_engine=array)
        self.pool = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
        self.acts = []
        self.index = {}
        self.completed = []

    def _track(self, acts):
        for act in acts:
            index = self.index[act] = len(self.acts)
            self.acts.append(act)
            act.done.callbacks.append(lambda e, i=index: self.completed.append(i))

    def apply(self, op):
        kind = op[0]
        if kind == "fanout":
            _, indices, work, hops = op
            resources = [self.pool[i] for i in indices]
            self._track(
                self.model.execute_fanout(work, resources, ("job", "task"), hops=hops)
            )
        elif kind == "single":
            _, indices, work = op
            usages = {self.pool[i]: 1.0 for i in indices}
            self._track([self.model.execute(Activity(work, usages))])
        elif kind == "cancel":
            running = [a for a in self.acts if a.running]
            if running:
                self.model.cancel(running[op[1] % len(running)])
        elif kind == "sync":
            self.model.sync_progress()
        elif kind == "step":
            for _ in range(op[1]):
                try:
                    self.env.step()
                except EmptySchedule:
                    break
        elif kind == "run":
            self.env.run(until=self.env.now + op[1])
        else:  # drain
            self.env.run()

    def state(self):
        model = self.model
        return {
            "acts": [
                (
                    a.done.triggered,
                    a.done.processed,
                    a.done._ok,
                    a.running,
                    a.finished_at,
                    a.rate,
                    a.remaining,
                )
                for a in self.acts
            ],
            "completed": list(self.completed),
            "now": self.env.now,
            "events": self.env.processed_events,
            "counters": [getattr(model, name) for name in COUNTERS],
            # Within one wake the array engine frees finished rows before
            # it splits a finished member's component, the object engine
            # goes by ``_seq``: the transient peak may differ after a split.
            "peak": model.peak_components if not model.splits else None,
            "running": sorted(self.index[a] for a in model.activities),
            "component_count": model.component_count,
            "component_sizes": model.component_sizes(),
            "histogram": model.component_size_histogram(),
        }


@st.composite
def _scripts(draw):
    n_caps = draw(st.sampled_from([1, 1, 2, 3]))
    # 1e10 against clock values near 1e9 puts ``remaining / rate`` under
    # the float spacing at ``now``: the absorbed-horizon completion.
    distinct = draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 10.0, 64.0, 1e10, math.inf]),
            min_size=n_caps,
            max_size=n_caps,
            unique=True,
        )
    )
    pool_size = draw(st.integers(min_value=1, max_value=80))
    # Long same-capacity stretches, so most fan-outs do form cohorts.
    block = draw(st.integers(min_value=1, max_value=pool_size))
    capacities = [distinct[(i // block) % n_caps] for i in range(pool_size)]
    work = st.sampled_from([0.0, 1.0, 7.5, 100.0, 1e4])
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(
            st.sampled_from(["fanout", "fanout", "single", "cancel", "sync", "step", "run"])
        )
        if kind == "fanout":
            # Members on routes of `hops` resources each, back to back.
            hops = draw(st.sampled_from([1, 1, 2, 3]))
            hops = min(hops, pool_size)
            n = draw(st.integers(min_value=1, max_value=min(64, pool_size // hops)))
            start = draw(st.integers(min_value=0, max_value=pool_size - n * hops))
            indices = list(range(start, start + n * hops))
            if draw(st.booleans()) and draw(st.booleans()):
                indices[-1] = indices[0]  # a resource listed twice
            ops.append(("fanout", indices, draw(work), hops))
        elif kind == "single":
            indices = draw(
                st.lists(st.integers(0, pool_size - 1), min_size=1, max_size=2, unique=True)
            )
            ops.append(("single", indices, draw(work)))
        elif kind == "cancel":
            ops.append(("cancel", draw(st.integers(0, 500))))
        elif kind == "sync":
            ops.append(("sync",))
        elif kind == "step":
            ops.append(("step", draw(st.integers(1, 70))))
        else:
            ops.append(("run", draw(st.sampled_from([0.0, 0.5, 3.0, 1e3, 1e9]))))
    ops.append(("drain",))
    return capacities, ops


@given(_scripts())
@settings(max_examples=150, deadline=None)
def test_property_cohort_engine_matches_object_engine(script):
    capacities, ops = script
    array = _World(True, capacities)
    reference = _World(False, capacities)
    for op in ops:
        array.apply(op)
        reference.apply(op)
        assert array.state() == reference.state(), op
    assert not array.model.activities and array.model.component_count == 0


def _fanout_world(n, capacity=4.0, array=True):
    return _World(array, [capacity] * n)


def test_cohort_is_one_row_one_heap_entry_and_n_components():
    world = _fanout_world(64)
    world.apply(("fanout", list(range(64)), 1024.0, 1))
    world.env.run(until=1.0)
    model = world.model
    stats = _cohorts(model)
    assert stats.cohorts_admitted == 1 and stats.cohort_members == 64
    assert len(model._horizon_heap) == 1
    assert sum(acts is not None for acts in model._array.acts) == 1
    # Observability: members are the singleton components they are.
    reference = _fanout_world(64, array=False)
    reference.apply(("fanout", list(range(64)), 1024.0, 1))
    reference.env.run(until=1.0)
    assert len(model.activities) == 64
    assert model.component_count == reference.model.component_count == 64
    assert model.component_sizes() == reference.model.component_sizes() == [1] * 64
    assert model.component_size_histogram() == {1: 64}
    assert reference.model.component_size_histogram() == {1: 64}
    world.env.run()
    assert world.completed == list(range(64))
    assert {a.finished_at for a in world.acts} == {256.0}
    assert model.slot_solves == model.resolves == 64


def test_member_cancelled_mid_flight_leaves_siblings_at_their_instant():
    untouched = _fanout_world(16, capacity=3.0)
    untouched.apply(("fanout", list(range(16)), 1000.0, 1))
    untouched.apply(("drain",))
    instant = untouched.acts[0].finished_at

    world = _fanout_world(16, capacity=3.0)
    world.apply(("fanout", list(range(16)), 1000.0, 1))
    world.env.run(until=100.0)
    victim = world.acts[5]
    world.model.cancel(victim)
    assert _cohorts(world.model).cohorts_dissolved == 1
    assert isinstance(victim.done.value, ActivityCancelled)
    assert victim.remaining == 1000.0 - 3.0 * 100.0
    world.env.run()
    siblings = [a for a in world.acts if a is not victim]
    assert [a.finished_at.hex() for a in siblings] == [instant.hex()] * 15
    assert world.completed == [5] + [i for i in range(16) if i != 5]


def test_second_user_promotes_one_member_under_its_own_component_id():
    world = _fanout_world(8)
    world.apply(("fanout", list(range(8)), 1024.0, 1))
    world.env.run(until=64.0)
    model = world.model
    world.apply(("single", [3], 512.0))
    assert _cohorts(model).cohorts_dissolved == 1
    promoted = world.acts[3]
    assert model._comp_of[promoted].id == 3  # the row's first id + k
    assert model._comp_of[promoted] is model._comp_of[world.acts[8]]
    assert promoted.remaining == 1024.0 - 4.0 * 64.0
    siblings = [a for i, a in enumerate(world.acts[:8]) if i != 3]
    assert all(a in model._slot_of for a in siblings)
    assert all(a.remaining == 1024.0 for a in siblings)  # still lazy, untouched
    assert model.component_sizes() == [1, 1, 1, 2, 1, 1, 1, 1]
    world.env.run()
    assert {a.finished_at for a in siblings} == {256.0}
    # 768 left at rate 2 while the newcomer runs (512 at rate 2 → t=320),
    # then 256 at rate 4.
    assert world.acts[8].finished_at == 320.0 and promoted.finished_at == 384.0


def test_two_cohorts_and_a_component_due_in_one_wake_complete_in_seq_order():
    for array in (True, False):
        world = _World(array, [4.0] * 3 + [8.0] + [4.0] * 3)
        world.apply(("fanout", [0, 1, 2], 1024.0, 1))
        world.apply(("single", [3], 1024.0))
        world.apply(("single", [3], 1024.0))  # two users at rate 4 each
        world.apply(("fanout", [4, 5, 6], 1024.0, 1))
        world.env.run()
        assert {a.finished_at for a in world.acts} == {256.0}
        assert world.completed == list(range(8))
        assert [a._seq for a in world.acts] == sorted(a._seq for a in world.acts)
        if array:
            assert _cohorts(world.model).cohorts_dissolved == 0


def test_unequal_capacities_fall_back_to_rows_of_one():
    states = []
    for array in (True, False):
        world = _World(array, [4.0, 4.0, 8.0, 4.0])
        world.apply(("fanout", [0, 1, 2, 3], 64.0, 1))
        world.apply(("drain",))
        states.append(world.state())
        assert [a.finished_at for a in world.acts] == [16.0, 16.0, 8.0, 16.0]
        if array:
            stats = _cohorts(world.model)
            assert stats.cohorts_admitted == 4 == stats.cohort_members
    assert states[0] == states[1]


def test_zero_work_and_infinite_capacity_fanouts():
    for array in (True, False):
        world = _World(array, [math.inf] * 4)
        world.apply(("fanout", [0, 1, 2, 3], 0.0, 1))
        assert all(a.done.triggered and a.finished_at == 0.0 for a in world.acts)
        world.apply(("fanout", [0, 1, 2, 3], 5.0, 1))
        world.apply(("drain",))
        assert world.completed == list(range(8))
        assert world.env.now == 0.0 and world.env.processed_events == 10  # resolve, wake, 8 members
        assert all(a.finished_at == 0.0 and a.remaining == 0.0 for a in world.acts)


def test_fanout_validates_like_the_activity_constructor():
    world = _fanout_world(2)
    with pytest.raises(ValueError, match="work must be >= 0"):
        world.model.execute_fanout(-1.0, list(world.pool))
    assert world.model.execute_fanout(1.0, []) == []


def test_wide_rigid_job_keeps_the_horizon_heap_tiny():
    """4 096 nodes × 20 compute iterations: one heap entry per iteration in
    flight, not one per node."""
    spec = {
        "platform": {
            "name": "wide",
            "nodes": {"count": 4096, "flops": 1e12},
            "network": {"topology": "star", "bandwidth": 1e10},
        },
        "workload": {
            "inline": {
                "jobs": [
                    {
                        "id": 1,
                        "submit_time": 0.0,
                        "num_nodes": 4096,
                        "application": {
                            "name": "app",
                            "phases": [
                                {
                                    "tasks": [{"type": "cpu", "flops": 1e12}],
                                    "iterations": 20,
                                }
                            ],
                        },
                    }
                ]
            }
        },
        "algorithm": "fcfs",
    }
    sim = Simulation.from_spec(json.loads(json.dumps(spec)))
    model = sim.batch.model
    peaks = []
    original = model._flush

    def watching_flush():
        original()
        peaks.append(len(model._horizon_heap))

    model._flush = watching_flush
    sim.run()
    assert sim.monitor.run_record()["summary"]["completed_jobs"] == 1
    stats = _cohorts(model)
    assert stats.cohorts_admitted == 20 and stats.cohort_members == 20 * 4096
    assert model.resolves == 20 * 4096
    assert peaks and max(peaks) <= 8


@pytest.mark.parametrize("array", [True, False])
@pytest.mark.parametrize("count, hops", [(5, 2), (4, 0), (1, -1)])
def test_resources_must_divide_into_routes(array, count, hops):
    world = _World(array, [4.0] * 8)
    with pytest.raises(ValueError, match="do not make routes"):
        world.model.execute_fanout(1.0, world.pool[:count], hops=hops)
    assert not world.model.activities


def test_exchange_on_private_routes_is_one_row_with_a_flat_route_list():
    world = _World(True, [8.0, 4.0] * 6)
    world.apply(("fanout", list(range(12)), 64.0, 2))  # rate: the 4.0 hop's
    model = world.model
    (row,) = [s for s, acts in enumerate(model._array.acts) if acts is not None]
    assert len(model._array.acts[row]) == 6 and model._array.ress[row] == world.pool
    assert _cohorts(model).cohort_members == 6 and len(model._horizon_heap) == 0
    # A second user on member 2's *second* link singles that member out.
    world.apply(("single", [5], 8.0))  # halves it until t = 4
    assert _cohorts(model).cohorts_dissolved == 1
    promoted = world.acts[2]
    assert set(model._res_users) == {world.pool[4], world.pool[5]}
    assert model._comp_of[promoted] is model._comp_of[world.acts[6]]
    assert {len(r) for r in model._array.ress if r is not None} == {2}
    world.apply(("drain",))
    assert [a.finished_at for a in world.acts[:3]] == [16.0, 16.0, 18.0]
    assert world.completed[-1] == 2
