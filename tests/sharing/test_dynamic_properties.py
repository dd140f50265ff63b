"""Property tests for the dynamic FairShareModel under random schedules."""

from hypothesis import given, settings, strategies as st

from repro.des import Environment
from repro.sharing import Activity, FairShareModel, SharedResource


@st.composite
def _schedules(draw):
    """Random (resources, [(start_delay, work, resource indices)]) scripts."""
    n_res = draw(st.integers(min_value=1, max_value=4))
    capacities = [
        draw(st.floats(min_value=1.0, max_value=100.0)) for _ in range(n_res)
    ]
    n_act = draw(st.integers(min_value=1, max_value=12))
    script = []
    for _ in range(n_act):
        delay = draw(st.floats(min_value=0.0, max_value=50.0))
        work = draw(st.floats(min_value=0.1, max_value=500.0))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_res - 1),
                min_size=1,
                max_size=n_res,
                unique=True,
            )
        )
        script.append((delay, work, tuple(indices)))
    return capacities, script


@given(_schedules())
@settings(max_examples=100, deadline=None)
def test_property_all_activities_complete(schedule):
    capacities, script = schedule
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
    activities = []

    def submit(env, delay, work, indices):
        if delay > 0:
            yield env.timeout(delay)
        act = Activity(work, {resources[i]: 1.0 for i in indices})
        activities.append(act)
        model.execute(act)
        yield act.done

    for delay, work, indices in script:
        env.process(submit(env, delay, work, indices))
    env.run()

    assert len(activities) == len(script)
    for act in activities:
        assert act.done.triggered and act.done.ok
        assert act.remaining == 0.0
        assert act.finished_at is not None
    assert model.component_count == 0


@given(_schedules())
@settings(max_examples=60, deadline=None)
def test_property_completion_time_lower_bound(schedule):
    """No activity finishes faster than running alone at full capacity."""
    capacities, script = schedule
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
    records = []

    def submit(env, delay, work, indices):
        if delay > 0:
            yield env.timeout(delay)
        act = Activity(work, {resources[i]: 1.0 for i in indices})
        best_rate = min(resources[i].capacity for i in indices)
        model.execute(act)
        yield act.done
        records.append((act, best_rate))

    for delay, work, indices in script:
        env.process(submit(env, delay, work, indices))
    env.run()

    for act, best_rate in records:
        duration = act.finished_at - act.started_at
        assert duration >= act.work / best_rate - 1e-6 * (1 + act.work / best_rate)


@given(_schedules())
@settings(max_examples=60, deadline=None)
def test_property_dynamic_runs_deterministic(schedule):
    capacities, script = schedule

    def run():
        env = Environment()
        model = FairShareModel(env)
        resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
        finishes = []

        def submit(env, delay, work, indices):
            if delay > 0:
                yield env.timeout(delay)
            act = Activity(work, {resources[i]: 1.0 for i in indices})
            model.execute(act)
            yield act.done
            finishes.append(env.now)

        for delay, work, indices in script:
            env.process(submit(env, delay, work, indices))
        env.run()
        return finishes

    assert run() == run()
