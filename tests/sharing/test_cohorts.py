"""Fan-out cohorts: one memberless row for n identical unit activities.

The production (array) engine admits a task fan-out — an exchange of
flows over private routes, file-system I/O through one shared link and
service — as a single cohort row behind one ``Fanout`` handle and creates
its members only when one is singled out: a row of the slot table when
every hop is private, a row of the shared hops' component otherwise.  The
reference engine (``reference=True``) runs every member as an activity of
its own from birth and solves components with the numpy kernel.  Both must
agree on everything observable, step by step.  Members are told apart by their place in the reserved
``_seq`` range, never by object identity: on the array side the objects
may not exist.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import Simulation
from repro.des import EmptySchedule, Environment
from repro.monitoring import SolverStats
from repro.sharing import (
    Activity,
    ActivityCancelled,
    FairShareModel,
    Fanout,
    SharedResource,
)


#: ``SolverStats`` fields that describe the engine, not the simulation.
ENGINE_STATS = (
    "solver_time",
    "scalar_solves",
    "vector_solves",
    "slot_solves",
    "cohorts_admitted",
    "cohort_members",
    "cohorts_dissolved",
)


#: The cohort tallies live in the one stats surface, ``monitor.solver``.
_cohorts = SolverStats.from_model


def _member_state(act):
    return (
        act.done.triggered,
        act.done.processed,
        act.done._ok,
        act.running,
        act.finished_at,
        act.rate,
        act.remaining,
        act.payload,
    )


class _World:
    """One engine's model, what it started and what completed.

    Every activity has a global index: a single its own, member ``k`` of a
    fan-out ``base + k``.  ``seq_index`` maps ``_seq`` to it — for a
    memberless cohort through the reserved range on its handle.
    """

    def __init__(self, reference, capacities):
        self.env = Environment()
        self.model = FairShareModel(self.env, reference=reference)
        self.pool = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
        self.count = 0
        self.singles = {}  # index → activity
        self.handles = []  # (base index, handle)
        self.watched = set()  # bases of handles whose members log completions
        self.seq_index = {}
        self.completed = []

    def fanout(self, handle):
        base = self.count
        self.count += len(handle)
        self.handles.append((base, handle))
        first = handle._seq if handle._activities is None else None
        for k in range(len(handle)):
            seq = first + k if first is not None else handle._activities[k]._seq
            self.seq_index[seq] = base + k
        # Like the executor after a kill: a member's cancellation fails
        # the all-of, and that is handled.
        handle.done.defuse()
        if not handle.done.processed:  # an empty one is done from birth
            handle.done.callbacks.append(
                lambda e, base=base: self.completed.append(("all", base))
            )
        return handle

    def single(self, act):
        index = self.count
        self.count += 1
        self.singles[index] = act
        self.seq_index[act._seq] = index
        act.done.callbacks.append(lambda e: self.completed.append(index))
        return act

    def members(self, position):
        """Members of the ``position``-th fan-out: materialises it."""
        base, handle = self.handles[position]
        return base, handle.activities

    def watch(self, bases):
        """Log member completions of these fan-outs from here on."""
        for base, handle in self.handles:
            if base in bases and base not in self.watched:
                self.watched.add(base)
                for k, act in enumerate(handle.activities):
                    if not act.done.processed:
                        act.done.callbacks.append(
                            lambda e, i=base + k: self.completed.append(i)
                        )

    def materialised(self):
        return {base for base, handle in self.handles if handle._activities is not None}

    def running(self):
        """Indices and component ids of the running activities, read
        without asking any handle for its members."""
        model = self.model
        cids = {}
        for act, comp in model._comp_of.items():
            # A row of a component stands for all its members, in it.
            for k in range(len(act) if type(act) is Fanout else 1):
                cids[self.seq_index[act._seq + k]] = comp.id
        table = model._array
        if table is not None:
            for owner, n, cid in zip(table.owner, table.n, table.cid):
                if owner is not None:
                    for k in range(n):
                        cids[self.seq_index[owner._seq + k]] = cid + k
        return dict(sorted(cids.items()))

    def apply(self, op):
        kind = op[0]
        model = self.model
        if kind == "fanout":
            _, indices, work, hops, per_member = op
            resources = [self.pool[i] for i in indices]
            payloads = ("job", "task")
            if per_member:
                payloads = [("job", "task", k) for k in range(len(indices) // hops)]
            self.fanout(model.execute_fanout(work, resources, payloads, hops=hops))
        elif kind == "single":
            _, indices, work = op
            usages = {self.pool[i]: 1.0 for i in indices}
            self.single(model.execute(Activity(work, usages)))
        elif kind == "intruder":
            _, indices, work, factor, weight, bound = op
            usages = {self.pool[i]: factor for i in indices}
            self.single(model.execute(Activity(work, usages, weight=weight, bound=bound)))
        elif kind == "cancel":
            running = list(self.running())
            if running:
                index = running[op[1] % len(running)]
                if index in self.singles:
                    model.cancel(self.singles[index])
                else:
                    position = max(
                        p for p, (base, _) in enumerate(self.handles) if base <= index
                    )
                    base, members = self.members(position)
                    model.cancel(members[index - base])
        elif kind == "cancel_fanout":
            if self.handles:
                model.cancel(self.handles[op[1] % len(self.handles)][1])
        elif kind == "peek":
            if self.handles:
                self.members(op[1] % len(self.handles))
        elif kind == "sync":
            model.sync_progress()
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

    def rows(self):
        """Positions of the fan-outs that are rows of components right now."""
        comp_of = self.model._comp_of
        return {p for p, (_, handle) in enumerate(self.handles) if handle in comp_of}

    def progress(self, position):
        """``(rate, remaining)`` of a fan-out's members: off the row that
        stands for them, or off every one of them — one pair either way."""
        _, handle = self.handles[position]
        if handle._activities is None:
            return handle.rate, handle.remaining
        (pair,) = {(act.rate, act.remaining) for act in handle._activities}
        return pair

    def state(self, members_of, rows_of=()):
        """Everything observable; per-member state only for the fan-outs
        in ``members_of`` (those the array engine has materialised), the
        members' common progress for those in ``rows_of`` (rows of
        components on the array engine)."""
        model = self.model
        stats = SolverStats.from_model(model).as_dict()
        for name in ENGINE_STATS:
            del stats[name]
        if model.splits:
            # Within one wake the array engine frees finished rows before
            # it splits a finished member's component, the object engine
            # goes by ``_seq``: the transient peak may differ after a split.
            del stats["peak_components"]
        return {
            "singles": {i: _member_state(a) for i, a in self.singles.items()},
            "handles": [
                (base, len(h), h.done.triggered, h.done.processed, h.done._ok)
                for base, h in self.handles
            ],
            "members": {
                base: [(_member_state(a), a._seq - h.activities[0]._seq) for a in h.activities]
                for base, h in self.handles
                if base in members_of
            },
            "rows": {position: self.progress(position) for position in rows_of},
            "completed": list(self.completed),
            "now": self.env.now,
            "events": self.env.processed_events,
            "stats": stats,
            "running": self.running(),
            "component_count": model.component_count,
            "component_sizes": model.component_sizes(),
        }


class _Pair:
    """The array engine and its reference, driven in lockstep."""

    def __init__(self, capacities):
        self.array = _World(False, capacities)
        self.reference = _World(True, capacities)

    def apply(self, op):
        self.array.apply(op)
        if op[0] == "step":
            # A step of the array engine may be a whole memberless run —
            # several events' worth: the reference steps to the same count.
            target = self.array.env.processed_events
            while self.reference.env.processed_events < target:
                self.reference.env.step()
        else:
            self.reference.apply(op)
        # Whatever the array engine materialised — asked to or on its own
        # — is compared member by member from here on.
        materialised = self.array.materialised()
        self.array.watch(materialised)
        self.reference.watch(materialised)
        rows = self.array.rows()
        assert self.array.state(materialised, rows) == self.reference.state(materialised, rows), op
        # The same multi-activity solves: rows through the scalar loop
        # here, their members through the numpy kernel there.
        ours, theirs = self.array.model, self.reference.model
        assert ours.scalar_solves == theirs.vector_solves
        assert ours.vector_solves == theirs.scalar_solves == 0


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
    # Where most shared hops point, so that hubs do get crowded.
    hubs = st.one_of(st.integers(0, min(2, pool_size - 1)), st.integers(0, pool_size - 1))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(
            st.sampled_from(
                ["fanout", "fanout", "fanout", "single", "intruder", "cancel",
                 "cancel_fanout", "peek", "sync", "step", "step", "run"]
            )
        )
        if kind == "fanout":
            # Members on routes of `hops` resources each, back to back: a
            # shared position names one resource in every route, the
            # others run through the pool.
            hops = draw(st.sampled_from([1, 1, 2, 3]))
            hops = min(hops, pool_size)
            shared = {}
            if draw(st.booleans()):
                for position in draw(st.sets(st.integers(0, hops - 1))):
                    shared[position] = draw(hubs)
            private = hops - len(shared)
            n = draw(st.integers(0, min(64, pool_size // private) if private else 64))
            following = iter(range(draw(st.integers(0, pool_size - n * private)), pool_size))
            indices = [
                shared[position] if position in shared else next(following)
                for _ in range(n)
                for position in range(hops)
            ]
            if n and draw(st.booleans()) and draw(st.booleans()):
                indices[-1] = indices[0]  # a resource listed twice
            ops.append(("fanout", indices, draw(work), hops, draw(st.booleans())))
        elif kind == "single":
            indices = draw(
                st.lists(st.integers(0, pool_size - 1), min_size=1, max_size=2, unique=True)
            )
            ops.append(("single", indices, draw(work)))
        elif kind == "intruder":
            # Not a unit activity: beside rows, the kernel must still add
            # and withdraw every member's demand where the member would.
            indices = draw(st.lists(hubs, min_size=1, max_size=2, unique=True))
            ops.append(
                (
                    "intruder",
                    indices,
                    draw(work),
                    draw(st.sampled_from([1.0, 0.3, 0.7, 2.0])),
                    draw(st.sampled_from([1.0, 0.1, 3.0])),
                    draw(st.sampled_from([math.inf, 0.25, 2.0, 1e3])),
                )
            )
        elif kind in ("cancel", "cancel_fanout", "peek"):
            ops.append((kind, draw(st.integers(0, 500))))
        elif kind == "sync":
            ops.append(("sync",))
        elif kind == "step":
            ops.append(("step", draw(st.integers(1, 5))))
        else:
            ops.append(("run", draw(st.sampled_from([0.0, 0.5, 3.0, 1e3, 1e9]))))
    ops.append(("drain",))
    return capacities, ops


@given(_scripts())
@settings(max_examples=200, deadline=None)
def test_property_cohort_engine_matches_object_engine(script):
    capacities, ops = script
    pair = _Pair(capacities)
    for op in ops:
        pair.apply(op)
    assert pair.array.model.component_count == 0 and not pair.array.running()
    # Afterwards every member can be asked for: finished stand-ins where
    # none ever existed, equal to the reference's real ones.
    everything = {base for base, _ in pair.array.handles}
    assert pair.array.state(everything) == pair.reference.state(everything)


def _fanout_pair(n, capacity=4.0, hops=1):
    return _Pair([capacity] * (n * hops))


def _rows(model):
    return [s for s, owner in enumerate(model._array.owner) if owner is not None]


def test_cohort_is_one_row_one_heap_entry_and_n_components():
    pair = _fanout_pair(64)
    pair.apply(("fanout", list(range(64)), 1024.0, 1, False))
    pair.apply(("run", 1.0))
    model = pair.array.model
    stats = _cohorts(model)
    assert stats.cohorts_admitted == 1 and stats.cohort_members == 64
    assert len(model._horizon_heap) == 1
    (row,) = _rows(model)
    (_, handle), = pair.array.handles
    assert model._array.owner[row] is handle and model._array.n[row] == 64
    # Observability: members are the singleton components they are.
    reference = pair.reference.model
    assert model.component_count == reference.component_count == 64
    assert model.component_sizes() == reference.component_sizes() == [1] * 64
    assert model.component_size_histogram() == {1: 64}
    assert reference.component_size_histogram() == {1: 64}
    pair.apply(("drain",))
    assert pair.array.completed == [("all", 0)]
    assert pair.array.env.now == 256.0
    assert model.slot_solves == model.resolves == 64
    # Admitted, solved, woken and finished without one member existing.
    assert handle._activities is None and _cohorts(model).cohorts_dissolved == 0


def test_happy_path_creates_no_activity_and_no_member_event(monkeypatch):
    materialised = []
    original = Fanout._materialise

    def spy(self, rate, remaining):
        materialised.append(self)
        return original(self, rate, remaining)

    monkeypatch.setattr(Fanout, "_materialise", spy)
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", 4.0) for i in range(32)]
    handle = model.execute_fanout(64.0, resources, [("j", "t", k) for k in range(32)])
    assert isinstance(handle, Fanout) and len(handle) == 32
    env.run(until=handle.done)
    assert env.now == 16.0 and not materialised and handle._activities is None
    # resolve, wake, 32 members' worth of completions, fire check, all-of
    assert env.processed_events == 2 + 32 + 2
    # Asked afterwards, the members are finished stand-ins under their ids.
    members = handle.activities
    assert materialised == [handle]
    assert [a.payload for a in members] == [("j", "t", k) for k in range(32)]
    assert [a._seq - members[0]._seq for a in members] == list(range(32))
    assert all(
        a.finished_at == 16.0 and a.remaining == 0.0 and a.done.processed and not a.running
        for a in members
    )


def test_member_cancelled_mid_flight_leaves_siblings_at_their_instant():
    untouched = _fanout_pair(16, capacity=3.0)
    untouched.apply(("fanout", list(range(16)), 1000.0, 1, False))
    untouched.apply(("drain",))
    instant = untouched.array.env.now

    pair = _fanout_pair(16, capacity=3.0)
    pair.apply(("fanout", list(range(16)), 1000.0, 1, False))
    pair.apply(("run", 100.0))
    pair.apply(("cancel", 5))
    world = pair.array
    assert _cohorts(world.model).cohorts_dissolved == 1
    _, members = world.members(0)
    victim = members[5]
    assert isinstance(victim.done.value, ActivityCancelled)
    assert victim.remaining == 1000.0 - 3.0 * 100.0
    pair.apply(("drain",))
    siblings = [a for a in members if a is not victim]
    assert [a.finished_at.hex() for a in siblings] == [instant.hex()] * 15
    # The all-of fails with the victim; the siblings complete regardless.
    assert world.completed == [5, ("all", 0)] + [i for i in range(16) if i != 5]


def test_second_user_promotes_one_member_under_its_own_component_id():
    pair = _fanout_pair(8)
    pair.apply(("fanout", list(range(8)), 1024.0, 1, False))
    pair.apply(("run", 64.0))
    world = pair.array
    model = world.model
    pair.apply(("single", [3], 512.0))
    assert _cohorts(model).cohorts_dissolved == 1
    _, members = world.members(0)
    promoted, newcomer = members[3], world.singles[8]
    assert model._comp_of[promoted].id == 3  # the row's first id + k
    assert model._comp_of[promoted] is model._comp_of[newcomer]
    assert promoted.remaining == 1024.0 - 4.0 * 64.0
    siblings = [a for i, a in enumerate(members) if i != 3]
    assert sorted(model._array.owner[s]._seq for s in _rows(model)) == [a._seq for a in siblings]
    assert all(a.remaining == 1024.0 for a in siblings)  # still lazy, untouched
    assert model.component_sizes() == [1, 1, 1, 2, 1, 1, 1, 1]
    pair.apply(("drain",))
    assert {a.finished_at for a in siblings} == {256.0}
    # 768 left at rate 2 while the newcomer runs (512 at rate 2 → t=320),
    # then 256 at rate 4.
    assert newcomer.finished_at == 320.0 and promoted.finished_at == 384.0


def test_two_cohorts_and_a_component_due_in_one_wake_complete_in_seq_order():
    pair = _Pair([4.0] * 3 + [8.0] + [4.0] * 3)
    pair.apply(("fanout", [0, 1, 2], 1024.0, 1, False))
    pair.apply(("single", [3], 1024.0))
    pair.apply(("single", [3], 1024.0))  # two users at rate 4 each
    pair.apply(("fanout", [4, 5, 6], 1024.0, 1, True))
    pair.apply(("run", 300.0))  # one wake at t = 256: everything is due at once
    for world in (pair.array, pair.reference):
        # Completions first, in ``_seq`` order; the all-ofs fire after them.
        assert world.completed == [3, 4, ("all", 0), ("all", 5)]
    assert pair.array.env.processed_events == pair.reference.env.processed_events
    assert _cohorts(pair.array.model).cohorts_dissolved == 0
    assert not pair.array.materialised()


def test_members_named_while_their_completion_is_queued_match_the_reference():
    """Between the wake and the completion run a cohort has finished but
    nothing has been processed: members asked for then are the run's."""
    pair = _Pair([4.0] * 8)
    pair.apply(("fanout", list(range(4)), 64.0, 1, False))
    pair.apply(("fanout", list(range(4, 8)), 64.0, 1, True))
    pair.apply(("step", 2))  # resolve, wake
    assert not pair.array.running() and pair.array.env.now == 16.0
    pair.apply(("peek", 1))
    _, members = pair.array.members(1)
    assert all(a.done.triggered and not a.done.processed for a in members)
    for _ in range(12):
        pair.apply(("step", 1))
    assert pair.array.completed == [4, 5, 6, 7, ("all", 0), ("all", 4)]
    assert _cohorts(pair.array.model).cohorts_dissolved == 0  # nothing was running


def test_cancelling_the_handle_fails_every_member_without_giving_them_rows():
    pair = _fanout_pair(16, hops=2)
    pair.apply(("fanout", list(range(32)), 1000.0, 2, True))
    pair.apply(("run", 10.0))
    model = pair.array.model
    heap_before = list(model._horizon_heap)
    pair.apply(("cancel_fanout", 0))
    assert model._horizon_heap == heap_before  # no entry per freed member
    assert not _rows(model) and not model._res_slot and model.component_count == 0
    assert _cohorts(model).cohorts_dissolved == 1
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert all(isinstance(a.done.value, ActivityCancelled) for a in members)
        assert [a.done.value.activity for a in members] == members
        assert {a.remaining for a in members} == {1000.0 - 4.0 * 10.0}
    pair.apply(("drain",))
    # The all-of failed with the first member's cancellation, defused by no
    # one here: the handles' own callbacks saw it.
    assert pair.array.completed == pair.reference.completed
    assert pair.array.handles[0][1].done.ok is False
    pair.apply(("cancel_fanout", 0))  # again: nothing left to cancel


@pytest.mark.parametrize(
    "capacities",
    [
        [3.0],
        [0.1, 0.3],
        [1e12, 1e9, 2.5e10],
        [5e-324, 1.0],  # smallest positive float
        [1.7976931348623157e308, math.inf],
        [math.inf],
        [math.inf, math.inf],
        [math.inf, 7.0, math.inf],
        [],  # no resources: limited by the (infinite) bound alone
    ],
)
def test_unit_rate_is_the_single_rate_of_a_unit_activity(capacities):
    """The cohort's rate shortcut against the kernel it stands in for,
    bit for bit — and both against the scalar loop itself."""
    from repro.sharing.model import _single_rate, _solve_scalar, _unit_rate

    route = [SharedResource(f"r{i}", cap) for i, cap in enumerate(capacities)]
    act = Activity(1.0, dict.fromkeys(route, 1.0))
    expected = _single_rate(act)
    _solve_scalar([act])
    assert act.rate.hex() == expected.hex()
    assert _unit_rate(route).hex() == expected.hex()


def test_unequal_capacities_fall_back_to_rows_of_one():
    pair = _Pair([4.0, 4.0, 8.0, 4.0])
    pair.apply(("fanout", [0, 1, 2, 3], 64.0, 1, False))
    stats = _cohorts(pair.array.model)
    assert stats.cohorts_admitted == 4 == stats.cohort_members
    pair.apply(("drain",))
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert [a.finished_at for a in members] == [16.0, 16.0, 8.0, 16.0]


def test_zero_work_and_infinite_capacity_fanouts():
    pair = _Pair([math.inf] * 4)
    pair.apply(("fanout", [0, 1, 2, 3], 0.0, 1, False))
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert all(a.done.triggered and a.finished_at == 0.0 for a in members)
    pair.apply(("fanout", [0, 1, 2, 3], 5.0, 1, False))
    pair.apply(("drain",))
    for world in (pair.array, pair.reference):
        # The zero-work fan-out has had members from birth: watched.
        assert world.completed == [0, 1, 2, 3, ("all", 0), ("all", 4)]
        # 4 zero-work members + their all-of (2), then resolve, wake, 4
        # members and their all-of
        assert world.env.now == 0.0 and world.env.processed_events == 6 + 8
        assert all(
            a.finished_at == 0.0 and a.remaining == 0.0
            for position in (0, 1)
            for a in world.members(position)[1]
        )


@pytest.mark.parametrize("reference", [False, True])
def test_an_empty_fanout_is_done_without_an_event(reference):
    world = _World(reference, [4.0])
    handle = world.model.execute_fanout(1.0, [])
    assert len(handle) == 0 and handle.activities == []
    assert handle.done.processed and handle.done.ok
    world.env.run()
    assert world.env.processed_events == 0
    world.model.cancel(handle)  # nothing to cancel


def test_fanout_validates_like_the_activity_constructor():
    world = _World(False, [4.0, 4.0])
    with pytest.raises(ValueError, match="work must be >= 0"):
        world.model.execute_fanout(-1.0, list(world.pool))
    with pytest.raises(ValueError, match="3 payloads for 2 routes"):
        world.model.execute_fanout(1.0, list(world.pool), [("a",), ("b",), ("c",)])
    assert world.model.component_count == 0


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
    assert stats.cohorts_dissolved == 0
    assert model.resolves == 20 * 4096
    assert peaks and max(peaks) <= 8


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("count, hops", [(5, 2), (4, 0), (1, -1)])
def test_resources_must_divide_into_routes(reference, count, hops):
    world = _World(reference, [4.0] * 8)
    with pytest.raises(ValueError, match="do not make routes"):
        world.model.execute_fanout(1.0, world.pool[:count], hops=hops)
    assert world.model.component_count == 0


def test_exchange_on_private_routes_is_one_row_with_a_flat_route_list():
    pair = _Pair([8.0, 4.0] * 6)
    pair.apply(("fanout", list(range(12)), 64.0, 2, True))  # rate: the 4.0 hop's
    world = pair.array
    model = world.model
    (row,) = _rows(model)
    assert model._array.n[row] == 6 and model._array.ress[row] == world.pool
    assert _cohorts(model).cohort_members == 6 and len(model._horizon_heap) == 0
    # A second user on member 2's *second* link singles that member out.
    pair.apply(("single", [5], 8.0))  # halves it until t = 4
    assert _cohorts(model).cohorts_dissolved == 1
    _, members = world.members(0)
    promoted = members[2]
    assert set(model._res_users) == {world.pool[4], world.pool[5]}
    assert model._comp_of[promoted] is model._comp_of[world.singles[6]]
    assert {len(r) for r in model._array.ress if r is not None} == {2}
    assert [a.payload for a in members] == [("job", "task", k) for k in range(6)]
    pair.apply(("drain",))
    assert [a.finished_at for a in members[:3]] == [16.0, 16.0, 18.0]
    assert world.completed[-2:] == [2, ("all", 0)]


def test_model_materialise_dissolves_every_intact_cohort():
    pair = _fanout_pair(4)
    pair.apply(("fanout", [0, 1, 2, 3], 64.0, 1, False))
    pair.apply(("run", 1.0))
    model = pair.array.model
    assert model.component_count == 4 and not pair.array.materialised()
    running = sorted(model.materialise(), key=lambda a: a._seq)
    assert running == pair.array.handles[0][1].activities
    assert _cohorts(model).cohorts_dissolved == 1
    pair.apply(("drain",))


# -- rows of shared components ---------------------------------------------------
#
# File-system I/O: member k's route is (the file system's link, node k's
# link, the file system's service) — the first and the last the same
# resource in every route.  Pool layout below: [link, service, node links…].


def _io_pair(n, link=80.0, service=80.0, node=10.0, extra=()):
    return _Pair([link, service] + [node] * n + list(extra))


def _io_routes(first, n):
    """Flat routes of ``n`` members over node links ``first``…."""
    return [i for k in range(n) for i in (0, first + k, 1)]


def test_io_fanout_is_one_row_of_its_hub_and_no_member_exists(monkeypatch):
    created = []
    monkeypatch.setattr(Fanout, "_materialise", lambda self, *args: created.append(self))
    pair = _io_pair(64, link=128.0, service=64.0)
    pair.apply(("fanout", _io_routes(2, 64), 640.0, 3, True))
    pair.apply(("run", 1.0))
    model, reference = pair.array.model, pair.reference.model
    (_, handle), = pair.array.handles
    # One component holding one entry that counts for 64, one heap entry;
    # the handle is the one user of all it runs on.
    (comp,) = model._components
    assert list(comp.acts) == [handle] and comp.extra == 63
    assert len(model._horizon_heap) == 1 and not _rows(model)
    assert all(list(users) == [handle] for users in model._res_users.values())
    assert len(model._res_users) == 2 + 64
    assert (handle.rate, handle.remaining) == (1.0, 640.0)  # integrated lazily
    stats, expected = _cohorts(model), _cohorts(reference)
    assert stats.cohorts_admitted == 1 and stats.cohort_members == 64
    # Counted in members, like the reference: one scalar solve of 64.
    assert model.component_sizes() == reference.component_sizes() == [64]
    assert model.component_size_histogram() == {64: 1}
    assert (stats.resolves, stats.scalar_solves, stats.solved_activities) == (1, 1, 64)
    assert stats.max_solve_scope == expected.max_solve_scope == 64
    pair.apply(("drain",))
    assert pair.array.env.now == 640.0
    assert pair.array.completed == [("all", 0)]
    # resolve, the end of ``run(until=1.0)``, wake, 64 completions' worth,
    # fire check, all-of
    assert pair.array.env.processed_events == 3 + 64 + 2
    assert not created and handle._activities is None
    assert _cohorts(model).cohorts_dissolved == 0 and not model._res_users


def test_second_user_on_a_private_hop_dissolves_and_on_the_shared_hop_joins():
    pair = _io_pair(8, extra=[10.0])
    pair.apply(("fanout", _io_routes(2, 8), 800.0, 3, True))
    pair.apply(("run", 10.0))
    model = pair.array.model
    # Another reader: the link and the service get a second user each.
    pair.apply(("fanout", [0, 10, 1], 100.0, 3, False))
    assert _cohorts(model).cohorts_dissolved == 0 and not pair.array.materialised()
    (comp,) = model._components
    assert [len(entry) for entry in comp.acts] == [8, 1] and comp.extra == 7
    assert model.component_sizes() == [9]
    pair.apply(("run", 1.0))
    # A flow into member 3's node link: that member is singled out, and
    # all eight stand where the row stood — in the component, among the
    # users of both shared hops — ahead of the later reader.
    pair.apply(("single", [5], 50.0))
    assert _cohorts(model).cohorts_dissolved == 1
    assert pair.array.materialised() == {0}
    _, members = pair.array.members(0)
    later = pair.array.handles[1][1]
    assert list(comp.acts) == members + [later, pair.array.singles[9]]
    assert comp.extra == 0 and model.component_sizes() == [10]
    assert list(model._res_users[pair.array.pool[0]]) == members + [later]
    assert list(model._res_users[pair.array.pool[5]]) == [members[3], pair.array.singles[9]]
    assert {a.remaining for a in members} == {800.0 - 10.0 * 10.0 - 80.0 / 9}
    pair.apply(("drain",))
    assert pair.array.completed == pair.reference.completed


def test_two_rows_and_an_activity_due_in_one_wake_complete_in_seq_order():
    pair = _io_pair(6)
    pair.apply(("fanout", _io_routes(2, 3), 100.0, 3, False))
    pair.apply(("single", [0], 100.0))
    pair.apply(("fanout", _io_routes(5, 3), 100.0, 3, True))
    pair.apply(("run", 20.0))  # 7 users of an 80-wide link: all due at 8.75
    for world in (pair.array, pair.reference):
        assert world.completed == [3, ("all", 0), ("all", 4)]
        assert world.env.now == 20.0
    assert pair.array.env.processed_events == pair.reference.env.processed_events
    assert not pair.array.materialised()
    assert _cohorts(pair.array.model).cohorts_dissolved == 0


def test_private_links_saturate_before_the_hub():
    """E4's one-job point: four 10 GB/s node links under an 80 GB/s file
    system — the members' own links limit them, and the rate is theirs."""
    pair = _io_pair(4, link=160e9, service=80e9, node=10e9)
    pair.apply(("fanout", _io_routes(2, 4), 1e12, 3, True))
    pair.apply(("step", 1))
    (_, handle), = pair.array.handles
    assert handle.rate == 10e9
    # Twelve more and the service is what is short: 80e9 / 16 each.
    pair = _io_pair(16, link=160e9, service=80e9, node=10e9)
    pair.apply(("fanout", _io_routes(2, 4), 1e12, 3, True))
    pair.apply(("fanout", _io_routes(6, 12), 1e12, 3, True))
    pair.apply(("step", 1))
    assert [h.rate for _, h in pair.array.handles] == [5e9, 5e9]
    pair.apply(("drain",))
    assert _cohorts(pair.array.model).cohorts_dissolved == 0


def test_rows_through_a_multi_round_solve_next_to_non_unit_activities():
    """A slow row freezes on its node links in round one and hands the
    rest of the hub to a fast row and two intruders: several rounds,
    demands that are not whole numbers, units withdrawn mid-solve."""
    pair = _Pair([100.0, 90.0] + [2.0] * 5 + [50.0] * 3)
    pair.apply(("fanout", _io_routes(2, 5), 1000.0, 3, False))
    pair.apply(("intruder", [0, 1], 1000.0, 0.3, 3.0, math.inf))
    pair.apply(("fanout", _io_routes(7, 3), 1000.0, 3, True))
    pair.apply(("intruder", [1], 1000.0, 0.7, 0.1, 2.5))
    pair.apply(("step", 1))
    model = pair.array.model
    assert not pair.array.materialised() and model.scalar_solves == 1
    slow, fast = (h for _, h in pair.array.handles)
    assert slow.rate == 2.0 and fast.rate > 2.0
    # The same component, members spelled out, went through the numpy kernel.
    assert pair.reference.model.vector_solves == 1
    pair.apply(("drain",))
    assert _cohorts(model).cohorts_dissolved == 0


def test_a_cohort_of_one_carries_on_as_a_row_when_its_hub_gets_busy():
    pair = _io_pair(3)
    pair.apply(("fanout", [0, 2, 1], 400.0, 3, False))  # alone: a slot row
    pair.apply(("run", 10.0))
    model = pair.array.model
    assert len(_rows(model)) == 1 and not model._components
    pair.apply(("fanout", _io_routes(3, 2), 400.0, 3, False))
    (_, first), (_, second) = pair.array.handles
    (comp,) = model._components
    assert list(comp.acts) == [first, second] and comp.id == 0 and not _rows(model)
    assert first.remaining == 300.0 and first._shared == tuple(pair.array.pool[i] for i in (0, 2, 1))
    # Not even a second user on its node link tells a lone member apart.
    pair.apply(("single", [2], 10.0))
    assert _cohorts(model).cohorts_dissolved == 0 and not pair.array.materialised()
    pair.apply(("drain",))
    assert pair.array.completed == pair.reference.completed


def test_a_hop_only_some_routes_share_falls_back_to_activities():
    pair = _Pair([8.0] * 8)
    # Routes 0 and 1 end on resource 6, route 2 on resource 7: a fat
    # tree's leaf uplinks.
    pair.apply(("fanout", [0, 6, 1, 6, 2, 7], 64.0, 2, False))
    assert pair.array.materialised() == {0}
    assert _cohorts(pair.array.model).cohorts_admitted == 0
    pair.apply(("drain",))
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert [a.finished_at for a in members] == [16.0, 16.0, 8.0]


def test_cancelling_a_row_removes_it_from_its_component_in_one_pass():
    pair = _io_pair(6)
    pair.apply(("fanout", _io_routes(2, 4), 800.0, 3, True))
    pair.apply(("fanout", _io_routes(6, 2), 800.0, 3, True))
    pair.apply(("run", 10.0))
    model = pair.array.model
    pair.apply(("cancel_fanout", 0))
    (comp,) = model._components
    assert [len(entry) for entry in comp.acts] == [2] and comp.extra == 1
    assert _cohorts(model).cohorts_dissolved == 1
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert all(isinstance(a.done.value, ActivityCancelled) for a in members)
        assert {a.remaining for a in members} == {700.0}
    pair.apply(("drain",))
    assert pair.array.completed == pair.reference.completed


def test_a_row_spelled_out_by_a_split_in_its_own_last_wake_finishes_member_by_member():
    """An activity bridging a row's hub to another component finishes in
    the wake the row does, and first: its removal splits the component,
    the split spells the row out, and the members — due in this very
    wake — complete as the activities they now are."""
    pair = _Pair([1.0, 1.0])
    pair.apply(("single", [1], 7.5))
    pair.apply(("single", [0, 1], 1.0))  # the bridge
    pair.apply(("fanout", [0, 0], 1.0, 1, False))  # a row on resource 0
    pair.apply(("run", 2.0))
    assert not pair.array.materialised()
    pair.apply(("run", 2.0))  # bridge and row finish at 3.0
    model = pair.array.model
    assert model.splits == pair.reference.model.splits == 1
    assert _cohorts(model).cohorts_dissolved == 1
    assert pair.array.completed == [1, ("all", 2)]
    for world in (pair.array, pair.reference):
        _, members = world.members(0)
        assert [a.finished_at for a in members] == [3.0, 3.0]
    pair.apply(("drain",))
