"""White-box tests: horizon-heap compaction and stale-wake version races.

The completion machinery is lazily invalidated on two levels:

* every re-solve of a component/slot pushes a *new* horizon-heap entry
  and bumps the owner's version, leaving the old entry stale in place;
  ``_compact_heap`` sweeps those once they dominate the heap, and
  ``_arm_wake``/``_on_wake`` pop them when they surface at the top;
* every set change bumps the model-wide ``_wake_version``, so an armed
  wake-up event that was outrun by a perturbation must detect the
  mismatch and do nothing.

Both engine backends (object components and struct-of-arrays slots)
implement the same contract and are exercised here side by side.
"""

import hashlib
import math
import random

import pytest

from repro.des import Environment
from repro.sharing import Activity, ActivityCancelled, FairShareModel, SharedResource


@pytest.fixture(params=[False, True], ids=["array", "object"])
def reference(request):
    return request.param


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def model(env, reference):
    return FairShareModel(env, reference=reference)


def _stale_singletons(env, model, count, work=1e6):
    """Start ``count`` far-horizon singletons and cancel them at t=1.

    Each execution pushes one horizon entry; each cancel bumps the
    owner's version without popping it — leaving ``count`` stale entries
    buried in the heap (never at the top, so lazy popping can't reach
    them).
    """
    resources = [SharedResource(f"stale{i}", 100.0) for i in range(count)]
    acts = [Activity(work, {r: 1.0}) for r in resources]
    for act in acts:
        model.execute(act)
    env.run(until=1.0)
    for act in acts:
        model.cancel(act)
    env.run(until=2.0)
    return acts


class TestCompactHeap:
    def test_below_threshold_stale_entries_are_tolerated(self, env, model):
        # Compaction is an amortisation tool, not an invariant: small
        # heaps keep their stale entries (the wake loops pop them lazily).
        keeper = Activity(1000.0, {SharedResource("keep", 100.0): 1.0})
        model.execute(keeper)
        _stale_singletons(env, model, 10)
        before = list(model._horizon_heap)
        assert len(before) == 11
        model._compact_heap()
        assert model._horizon_heap == before

    def test_dominant_stale_entries_are_swept(self, env, model):
        # 70 buried stale entries + 2 live owners: over both thresholds
        # (>64 entries, >4x live), so compaction must drop exactly the
        # stale ones — and the survivors must still complete on schedule.
        keeper = Activity(1000.0, {SharedResource("keep", 100.0): 1.0})
        model.execute(keeper)
        shared = SharedResource("shared", 100.0)
        pair = [Activity(1000.0, {shared: 1.0}) for _ in range(2)]
        for act in pair:
            model.execute(act)  # true 2-activity component in both engines
        _stale_singletons(env, model, 70)
        assert len(model._horizon_heap) == 72
        model._compact_heap()
        # One entry per live owner: the keeper and the shared component.
        assert len(model._horizon_heap) == 2
        env.run()
        assert keeper.finished_at == pytest.approx(10.0)
        for act in pair:
            assert act.finished_at == pytest.approx(20.0)

    def test_flush_compacts_as_a_side_effect(self, env, model):
        # The sweep is wired into _flush: the next resolve after the heap
        # degenerates (here: one more activity start) compacts in passing.
        keeper = Activity(1000.0, {SharedResource("keep", 100.0): 1.0})
        model.execute(keeper)
        _stale_singletons(env, model, 70)
        late = Activity(100.0, {SharedResource("late", 100.0): 1.0})
        model.execute(late)
        env.run(until=3.0)
        assert len(model._horizon_heap) == 2
        env.run()
        assert late.finished_at == pytest.approx(3.0)
        assert keeper.finished_at == pytest.approx(10.0)


class TestStaleWakeRaces:
    def test_cancel_before_horizon_invalidates_armed_wake(self, env, model):
        # a's completion wake is armed for t=10; cancelling a at t=5 bumps
        # _wake_version, so the delivery at t=10 must be a no-op and b
        # (untouched, on its own resource) completes on schedule.
        a = Activity(1000.0, {SharedResource("a", 100.0): 1.0})
        b = Activity(2000.0, {SharedResource("b", 100.0): 1.0})
        model.execute(a)
        model.execute(b)

        def canceller(env, model, act):
            yield env.timeout(5.0)
            model.cancel(act)

        env.process(canceller(env, model, a))
        env.run()
        assert isinstance(a.done.value, ActivityCancelled)
        assert b.finished_at == pytest.approx(20.0)
        assert env.now == pytest.approx(20.0)

    def test_stale_on_wake_delivery_is_a_noop(self, env, model):
        # Direct version-race probe: delivering a wake carrying an outrun
        # _wake_version must not touch the heap or complete anything.
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        model.execute(a)
        env.run(until=1.0)
        heap_before = list(model._horizon_heap)
        model._on_wake(model._wake_version - 1)
        assert model._horizon_heap == heap_before
        assert not a.done.triggered
        env.run()
        assert a.finished_at == pytest.approx(10.0)

    def test_entry_version_race_pops_stale_heap_top(self, env, model):
        # b joining a's resource at t=5 re-solves a: the old t=10 horizon
        # entry (and, in the array engine, the promoted slot itself) goes
        # stale at the heap top and must be popped, not treated as a
        # completion.  From t=5 both run at rate 50 and finish at t=15.
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        model.execute(a)

        def joiner(env, model):
            yield env.timeout(5.0)
            b = Activity(500.0, {r: 1.0})
            model.execute(b)
            return b

        proc = env.process(joiner(env, model))
        env.run()
        assert a.finished_at == pytest.approx(15.0)
        assert proc.value.finished_at == pytest.approx(15.0)
        assert env.now == pytest.approx(15.0)

    def test_wake_after_cancel_of_sole_due_owner(self, env, model):
        # The armed wake and the heap top reference the same cancelled
        # owner: _arm_wake must pop it and re-arm on the survivor.
        a = Activity(500.0, {SharedResource("a", 100.0): 1.0})  # horizon t=5
        b = Activity(3000.0, {SharedResource("b", 100.0): 1.0})  # horizon t=30
        model.execute(a)
        model.execute(b)

        def canceller(env, model, act):
            yield env.timeout(2.0)
            model.cancel(act)

        env.process(canceller(env, model, a))
        env.run()
        assert isinstance(a.done.value, ActivityCancelled)
        assert b.finished_at == pytest.approx(30.0)
        assert env.now == pytest.approx(30.0)


def test_large_dirty_slot_batch_matches_the_retired_numpy_sweep():
    """4096 slots admitted at one instant solve to the heap entries the
    numpy sweep produced for batches of 32 and more before it was deleted
    (it was slower than the scalar loop at every size).  The digest was
    pinned by running this construction on commit 984027c, the last one
    with the sweep: horizons compare as float hex, so one differing bit
    in one entry fails the test.
    """
    n, start = 4096, 2.5
    rng = random.Random(13)
    env = Environment()
    model = FairShareModel(env)
    acts = []
    for i in range(n):
        kind = rng.random()  # 5 % run at infinite rate and finish at once
        capacity = math.inf if kind < 0.05 else rng.uniform(1e-3, 1e12)
        unbounded = kind < 0.05 or rng.random() < 0.7
        bound = math.inf if unbounded else rng.uniform(1e-3, 1e9)
        work = rng.choice([1e-12, 1.0, rng.uniform(1e-6, 1e15)])
        usage = {SharedResource(f"r{i}", capacity): rng.uniform(0.1, 4.0)}
        acts.append(Activity(work, usage, weight=rng.uniform(0.5, 2.0), bound=bound))

    def admit():
        yield env.timeout(start)
        model.execute_many(acts)

    env.process(admit())
    while model.slot_solves < n:
        env.step()

    heap = sorted(model._horizon_heap)
    assert len(heap) == n and env.now == start
    assert sum(1 for entry in heap if entry[0] == start) == 1481  # due at once
    text = "\n".join(f"{h.hex()} {e} {s} {v}" for h, e, s, v in heap)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "996d378a2ae96d136a75e9ade90934af16fe9bbeef316ad6081eed20bf020158"
    )
