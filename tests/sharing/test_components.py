"""Property and unit tests for the component-partitioned incremental solver.

Pins the tentpole contract of the incremental fair-share model:

* component-wise solving is *rate-identical* to the reference global
  ``solve_max_min`` — bitwise against a per-component reference (same code
  path, same float ops), within tight tolerance against the whole-graph
  solve (whose progressive filling interleaves components' theta rounds and
  therefore rounds differently in the last bits);
* the partition itself is maintained correctly under merge/split churn,
  and the removal shortcut (``_still_connected``) decides exactly what the
  full flood-fill would have;
* the model-level invariants (no resource oversubscription, max-min work
  conservation) hold under random start/cancel/finish schedules.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Environment
from repro.sharing import Activity, FairShareModel, SharedResource, solve_max_min


def _scratch_components(activities):
    """Reference partition: connected components by shared-resource BFS."""
    users = {}
    for act in activities:
        for res in act.usages:
            users.setdefault(res, []).append(act)
    unvisited = dict.fromkeys(activities)
    groups = []
    for seed in activities:
        if seed not in unvisited:
            continue
        del unvisited[seed]
        group, stack = [seed], [seed]
        while stack:
            act = stack.pop()
            for res in act.usages:
                for other in users[res]:
                    if other in unvisited:
                        del unvisited[other]
                        group.append(other)
                        stack.append(other)
        groups.append(group)
    return groups


@st.composite
def _systems(draw):
    """Random graphs incl. bound-limited, zero-usage, and giant components."""
    n_res = draw(st.integers(min_value=1, max_value=8))
    resources = [
        SharedResource(f"r{i}", draw(st.floats(min_value=0.1, max_value=1000.0)))
        for i in range(n_res)
    ]
    n_act = draw(st.integers(min_value=1, max_value=12))
    activities = []
    for _ in range(n_act):
        zero_usage = draw(st.booleans()) and draw(st.booleans())  # ~25%
        if zero_usage:
            usages = {}
        else:
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_res - 1),
                    min_size=1,
                    max_size=n_res,
                    unique=True,
                )
            )
            usages = {
                resources[j]: draw(st.floats(min_value=0.1, max_value=3.0))
                for j in indices
            }
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        bounded = draw(st.booleans())
        bound = draw(st.floats(min_value=0.5, max_value=100.0)) if bounded else math.inf
        activities.append(Activity(1.0, usages, weight=weight, bound=bound))
    return resources, activities


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_property_component_solve_bitwise_matches_reference(system):
    """The model's rates are bit-identical to solve_max_min per component."""
    _, activities = system
    env = Environment()
    model = FairShareModel(env)
    for act in activities:
        model.execute(act)
    env.run(until=0.0)  # processes the coalesced resolve, no completions yet

    model_rates = [act.rate for act in activities]
    for group in _scratch_components(activities):
        solve_max_min(group)  # overwrites rates with the reference solution
    reference_rates = [act.rate for act in activities]
    assert model_rates == reference_rates


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_property_component_solve_matches_global_solve(system):
    """Per-component solving equals the whole-graph solve (tight tolerance).

    Exact equality cannot hold bitwise: global progressive filling
    interleaves the components' theta rounds, so rate accumulation rounds
    differently in the last bits.  The solutions are the same real numbers.
    """
    _, activities = system
    for group in _scratch_components(activities):
        solve_max_min(group)
    component_rates = [act.rate for act in activities]
    solve_max_min(activities)
    global_rates = [act.rate for act in activities]
    for by_component, by_global in zip(component_rates, global_rates):
        assert by_component == pytest.approx(by_global, rel=1e-9, abs=1e-12)


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_property_partition_matches_scratch_components(system):
    """The incrementally maintained partition equals a from-scratch BFS."""
    _, activities = system
    env = Environment()
    model = FairShareModel(env)
    for act in activities:
        model.execute(act)
    env.run(until=0.0)

    still_running = [act for act in activities if act.running]
    expected = {
        frozenset(group)
        for group in _scratch_components(still_running)
    }
    # The array engine keeps simple (single-resource, sole-user) activities
    # in slot rows rather than Component objects; both are components.
    actual = {frozenset(comp.acts) for comp in model._components}
    actual.update(frozenset([act]) for act in model._array.owner if act is not None)
    assert actual == expected
    assert model.component_count == len(expected)


@st.composite
def _churn_schedules(draw):
    """Random scripts of starts (+ optional cancels) on random topologies."""
    n_res = draw(st.integers(min_value=1, max_value=6))
    capacities = [
        draw(st.floats(min_value=1.0, max_value=100.0)) for _ in range(n_res)
    ]
    n_act = draw(st.integers(min_value=1, max_value=14))
    script = []
    for _ in range(n_act):
        delay = draw(st.floats(min_value=0.0, max_value=40.0))
        work = draw(st.floats(min_value=0.1, max_value=400.0))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_res - 1),
                min_size=1,
                max_size=n_res,
                unique=True,
            )
        )
        cancel_after = (
            draw(st.floats(min_value=0.05, max_value=20.0))
            if draw(st.booleans()) and draw(st.booleans())
            else None
        )
        script.append((delay, work, tuple(indices), cancel_after))
    return capacities, script


@given(_churn_schedules())
@settings(max_examples=100, deadline=None)
def test_property_invariants_under_churn(schedule):
    """No oversubscription + work conservation at sampled instants under
    random start/cancel/finish churn, with lazily-integrated components."""
    capacities, script = schedule
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
    violations = []

    def submit(env, delay, work, indices, cancel_after):
        if delay > 0:
            yield env.timeout(delay)
        act = Activity(work, {resources[i]: 1.0 for i in indices})
        model.execute(act)
        if cancel_after is None:
            yield act.done
        else:
            yield env.timeout(cancel_after)
            model.cancel(act)  # no-op if it finished already

    def sampler(env):
        # Offsets chosen to dodge the (rational) completion instants; the
        # URGENT re-solve of any same-instant mutation runs before this
        # NORMAL event anyway.
        for k in range(1, 40):
            yield env.timeout(1.37 + 0.0003 * k)
            running = sorted(model.materialise(), key=lambda a: a._seq)
            for res in resources:
                used = sum(a.usages.get(res, 0.0) * a.rate for a in running)
                if used > res.capacity * (1 + 1e-6):
                    violations.append((env.now, "oversubscribed", res.name))
            for act in running:
                if act.rate == math.inf or act.rate >= act.bound * (1 - 1e-6):
                    continue
                blocked = any(
                    sum(b.usages.get(res, 0.0) * b.rate for b in running)
                    >= res.capacity * (1 - 1e-6)
                    for res in act.usages
                )
                if not blocked:
                    violations.append((env.now, "not-work-conserving", act._seq))

    for delay, work, indices, cancel_after in script:
        env.process(submit(env, delay, work, indices, cancel_after))
    env.process(sampler(env))
    env.run()

    assert violations == []
    # Every non-cancelled activity completed with its work fully accounted.
    assert model.component_count == 0


@given(_churn_schedules())
@settings(max_examples=60, deadline=None)
def test_property_partitioned_matches_global_model(schedule):
    """Completion times agree with the global reference model under churn."""
    capacities, script = schedule

    def run(model_type, **engine):
        env = Environment()
        model = model_type(env, **engine)
        resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
        finishes = {}

        def submit(env, seq, delay, work, indices, cancel_after):
            if delay > 0:
                yield env.timeout(delay)
            act = Activity(work, {resources[i]: 1.0 for i in indices})
            model.execute(act)
            if cancel_after is None:
                yield act.done
                finishes[seq] = env.now
            else:
                yield env.timeout(cancel_after)
                model.cancel(act)

        for seq, (delay, work, indices, cancel_after) in enumerate(script):
            env.process(submit(env, seq, delay, work, indices, cancel_after))
        env.run()
        return finishes, model.peak_components

    partitioned, _ = run(FairShareModel)
    # Objects only: a row would be admitted without asking ``_join``.
    reference, peak = run(_GlobalSolve, reference=True)
    assert peak == 1
    assert partitioned.keys() == reference.keys()
    for seq in partitioned:
        assert partitioned[seq] == pytest.approx(
            reference[seq], rel=1e-9, abs=1e-9
        )


class _GlobalSolve(FairShareModel):
    """Every activity in one component: the solve the partition decomposes."""

    def _join(self, resources):
        return super()._join([*self._res_users, *resources])

    def _still_connected(self, removed):
        return True


class _AlwaysSplit(FairShareModel):
    """The model without the removal shortcut: every removal flood-fills."""

    def _still_connected(self, removed):
        return False


def _partition_state(model, index):
    """(component id, member order) of every component, plus the counters."""
    comps = [(c.id, [index[a] for a in c.acts]) for c in model._components]
    table = model._array
    comps.extend((cid, [index[a]]) for a, cid in zip(table.owner, table.cid) if a is not None)
    return sorted(comps), (model.splits, model.merges, model.peak_components)


def _assert_resources_not_shared_between_components(model):
    for res, users in model._res_users.items():
        assert len({model._comp_of[act].id for act in users}) == 1, res


@st.composite
def _removal_scripts(draw):
    """A random bipartite graph and a random start/cancel/advance script."""
    n_res = draw(st.integers(min_value=2, max_value=7))
    n_act = draw(st.integers(min_value=2, max_value=14))
    acts = [
        (
            draw(st.floats(min_value=1.0, max_value=50.0)),
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_res - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            ),
        )
        for _ in range(n_act)
    ]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["start", "cancel", "advance"]),
                st.integers(min_value=0, max_value=n_act - 1),
                st.floats(min_value=0.05, max_value=4.0),
            ),
            max_size=30,
        )
    )
    started_at_zero = draw(st.integers(min_value=0, max_value=n_act))
    return n_res, acts, started_at_zero, ops


@given(_removal_scripts())
@settings(max_examples=200, deadline=None)
def test_property_removal_shortcut_matches_full_flood_fill(script):
    """Same ids, same member order, same counters as always calling _split."""
    n_res, specs, started_at_zero, ops = script

    def build(cls):
        env = Environment()
        model = cls(env)
        resources = [SharedResource(f"r{i}", 10.0) for i in range(n_res)]
        acts = [Activity(work, {resources[j]: 1.0 for j in on}) for work, on in specs]
        return env, model, acts, {act: i for i, act in enumerate(acts)}

    fast = build(FairShareModel)
    full = build(_AlwaysSplit)

    def apply(world, op, i, dt):
        env, model, acts, _ = world
        if op == "advance":
            env.run(until=env.now + dt)
        elif op == "cancel":
            model.cancel(acts[i])  # no-op unless running
        elif acts[i].done is None:
            model.execute(acts[i])

    steps = [("start", i, 0.0) for i in range(started_at_zero)] + ops
    steps += [("start", i, 0.0) for i in range(len(specs))]  # the stragglers
    steps.append(("advance", 0, 1e6))  # every survivor finishes
    for step in steps:
        for world in (fast, full):
            apply(world, *step)
        assert _partition_state(fast[1], fast[3]) == _partition_state(full[1], full[3])
        _assert_resources_not_shared_between_components(fast[1])
    assert fast[1].component_count == 0


def _two_hubs(readers):
    """Two file systems with ``readers`` readers each, joined by one copy."""
    env = Environment()
    model = FairShareModel(env)
    hubs = [SharedResource(f"pfs{k}", 1e3) for k in range(2)]
    sides = [
        [
            Activity(1e9, {SharedResource(f"nic{k}.{i}", 10.0): 1.0, hub: 1.0})
            for i in range(readers)
        ]
        for k, hub in enumerate(hubs)
    ]
    bridge = Activity(1e9, {hubs[0]: 1.0, hubs[1]: 1.0})
    for act in sides[0] + sides[1] + [bridge]:
        model.execute(act)
    env.run(until=0.0)
    return env, model, sides, bridge


class TestComponentMaintenance:
    """Direct unit tests of merge/split/dirty mechanics."""

    def test_disjoint_activities_form_disjoint_components(self):
        env = Environment()
        model = FairShareModel(env)
        resources = [SharedResource(f"r{i}", 10.0) for i in range(4)]
        for res in resources:
            model.execute(Activity(100.0, {res: 1.0}))
        env.run(until=0.0)
        assert model.component_count == 4
        assert model.component_sizes() == [1, 1, 1, 1]
        assert model.component_size_histogram() == {1: 4}

    def test_shared_resource_merges_components(self):
        env = Environment()
        model = FairShareModel(env)
        r1, r2 = SharedResource("r1", 10.0), SharedResource("r2", 10.0)
        model.execute(Activity(100.0, {r1: 1.0}))
        model.execute(Activity(100.0, {r2: 1.0}))
        env.run(until=0.0)
        assert model.component_count == 2
        # A bridging flow over both resources merges the two components.
        model.execute(Activity(100.0, {r1: 1.0, r2: 1.0}))
        env.run(until=1.0)
        assert model.component_count == 1
        assert model.merges >= 1

    def test_bridge_removal_splits_component(self):
        env = Environment()
        model = FairShareModel(env)
        r1, r2 = SharedResource("r1", 10.0), SharedResource("r2", 10.0)
        a = Activity(1000.0, {r1: 1.0})
        b = Activity(1000.0, {r2: 1.0})
        bridge = Activity(1000.0, {r1: 1.0, r2: 1.0})
        for act in (a, b, bridge):
            model.execute(act)
        env.run(until=0.0)
        assert model.component_count == 1
        model.cancel(bridge)
        env.run(until=1.0)
        assert model.component_count == 2
        assert model.splits >= 1

    def test_bridge_between_two_wide_hubs_splits_once(self):
        env, model, sides, bridge = _two_hubs(512)
        assert model.component_sizes() == [1025]
        # The copy is the only path between the hubs: the search exhausts
        # one side without reaching the other and the flood-fill runs.
        model.cancel(bridge)
        env.run(until=1.0)
        assert (model.splits, model.component_sizes()) == (1, [512, 512])
        _assert_resources_not_shared_between_components(model)
        # A reader's NIC dies with it and its hub stays: one live resource,
        # nothing to search, no split.
        model.cancel(sides[0][7])
        env.run(until=2.0)
        assert (model.splits, model.component_sizes()) == (1, [511, 512])
        _assert_resources_not_shared_between_components(model)

    def test_second_path_between_hubs_prevents_the_split(self):
        env, model, sides, bridge = _two_hubs(8)
        hubs = list(bridge.usages)
        second = Activity(1e9, {hubs[1]: 1.0, hubs[0]: 1.0})
        model.execute(second)
        env.run(until=0.0)
        model.cancel(bridge)
        env.run(until=1.0)
        assert (model.splits, model.component_sizes()) == (0, [17])

    def test_leaf_removal_does_not_split(self):
        env = Environment()
        model = FairShareModel(env)
        r = SharedResource("r", 10.0)
        a = Activity(1000.0, {r: 1.0})
        b = Activity(1000.0, {r: 1.0})
        model.execute(a)
        model.execute(b)
        env.run(until=0.0)
        model.cancel(a)
        env.run(until=1.0)
        assert model.component_count == 1
        assert model.splits == 0

    def test_untouched_component_is_not_resolved(self):
        env = Environment()
        model = FairShareModel(env)
        r1, r2 = SharedResource("r1", 10.0), SharedResource("r2", 10.0)
        long_lived = Activity(1e6, {r1: 1.0})
        model.execute(long_lived)
        env.run(until=0.0)
        resolves_before = model.resolves

        # Churn on a disjoint resource must never re-solve r1's component.
        def churn(env):
            for _ in range(10):
                act = Activity(10.0, {r2: 1.0})
                model.execute(act)
                yield act.done

        env.process(churn(env))
        env.run(until=50.0)
        assert model.resolves >= resolves_before + 10
        assert model.solved_activities < model.resolves + 2  # all scope-1 solves
        assert long_lived.rate == pytest.approx(10.0)

    def test_lazy_remaining_and_sync_progress(self):
        env = Environment()
        model = FairShareModel(env)
        r1, r2 = SharedResource("r1", 10.0), SharedResource("r2", 10.0)
        lazy = Activity(1000.0, {r1: 1.0})
        other = Activity(50.0, {r2: 1.0})
        model.execute(lazy)
        model.execute(other)
        env.run(until=other.done)  # t=5; lazy's component untouched since t=0
        assert env.now == pytest.approx(5.0)
        assert lazy.remaining == pytest.approx(1000.0)  # stale by design
        model.sync_progress()
        assert lazy.remaining == pytest.approx(950.0)

    def test_solver_counters_populate(self):
        env = Environment()
        model = FairShareModel(env)
        r = SharedResource("r", 10.0)
        act = Activity(100.0, {r: 1.0})
        model.execute(act)
        env.run()
        assert model.resolves >= 1
        assert model.solve_events >= 1
        assert model.solved_activities >= 1
        assert model.max_solve_scope >= 1
        assert model.solver_time >= 0.0
        assert model.peak_components == 1
        assert model.component_count == 0
