"""Event runs: k events queued as one entry behave as k queued entries.

Every scenario is played twice on fresh environments — members triggered
one by one (``succeed``) and members handed to ``schedule_run`` — and the
two must agree on callback order, ``processed_events`` and the clock.
The second half does the same for *memberless* runs: ``width`` events
nobody subscribed to one by one, queued as one entry that counts
``width`` processed events and owns ``width`` insertion ids.
"""

import pytest

from repro.des import EmptySchedule, Environment, SimulationError
from repro.des.events import NORMAL, URGENT, Event, EventRun
from repro.replay.snapshot import SidRegistry


def _triggered(env, k):
    events = [Event(env) for _ in range(k)]
    for i, event in enumerate(events):
        event._value = i
    return events


def _start(env, k, as_run, at=1.0):
    """k members completing at ``at``; returns them (log via callbacks)."""
    members = [Event(env) for _ in range(k)]

    def fire(_):
        if as_run:
            for i, event in enumerate(members):
                event._value = i
            env.schedule_run(members)
        else:
            for i, event in enumerate(members):
                event.succeed(i)

    env.timeout(at).callbacks.append(fire)
    return members


def _both(scenario):
    """Run ``scenario(env, members, log)`` in both forms; return the logs."""
    out = []
    for as_run in (False, True):
        env = Environment()
        log = []
        members = _start(env, 6, as_run)
        for i, member in enumerate(members):
            member.callbacks.append(lambda e, i=i: log.append(("member", i)))
        result = scenario(env, members, log)
        out.append((log, env.processed_events, env.now, result))
    return out


def test_plain_run_matches_separate_events():
    def scenario(env, members, log):
        env.run()

    separate, run = _both(scenario)
    assert run == separate
    assert [entry for entry in run[0]] == [("member", i) for i in range(6)]
    assert run[1] == 7  # the timeout + six members


def test_urgent_event_scheduled_by_a_member_overtakes_the_rest():
    def scenario(env, members, log):
        def spawn(_):
            urgent = Event(env)
            urgent._value = None
            urgent.callbacks.append(lambda e: log.append("urgent"))
            env.schedule(urgent, priority=URGENT)

        members[2].callbacks.append(spawn)
        env.run()

    separate, run = _both(scenario)
    assert run == separate
    assert run[0].index("urgent") == 3  # right after member 2, before member 3
    assert run[1] == 8


def test_normal_event_scheduled_by_a_member_waits_for_the_rest():
    def scenario(env, members, log):
        def spawn(_):
            normal = Event(env)
            normal._value = None
            normal.callbacks.append(lambda e: log.append("normal"))
            env.schedule(normal, priority=NORMAL)

        members[2].callbacks.append(spawn)
        env.run()

    separate, run = _both(scenario)
    assert run == separate
    assert run[0][-1] == "normal"
    assert run[1] == 8


def test_cancelled_member_is_skipped_and_not_counted():
    def scenario(env, members, log):
        members[0].callbacks.append(lambda e: members[3].callbacks.clear())
        members[0].callbacks.append(lambda e: members[3].cancel())
        env.run()

    separate, run = _both(scenario)
    assert run == separate
    assert ("member", 3) not in run[0]
    assert run[1] == 6


def test_all_members_cancelled_counts_nothing():
    env = Environment()
    members = _triggered(env, 3)
    env.schedule_run(members)
    for member in members:
        member.cancel()
    env.run()
    assert env.processed_events == 0


def test_run_until_member_stops_there_and_resumes():
    def scenario(env, members, log):
        value = env.run(until=members[3])
        at_stop = (list(log), env.processed_events, value)
        env.run()
        return at_stop

    separate, run = _both(scenario)
    assert run == separate
    log_at_stop, events_at_stop, value = run[3]
    assert log_at_stop == [("member", i) for i in range(4)]
    assert events_at_stop == 5 and value == 3
    assert run[0] == [("member", i) for i in range(6)]


def test_undefused_failure_raises_at_that_member_and_keeps_the_rest():
    def scenario(env, members, log):
        def poison(_):
            members[2]._ok = False
            members[2]._value = RuntimeError("boom")

        members[0].callbacks.append(poison)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        at_raise = (list(log), env.processed_events)
        env.run()
        return at_raise

    separate, run = _both(scenario)
    assert run == separate
    log_at_raise, events_at_raise = run[3]
    assert log_at_raise == [("member", 0), ("member", 1), ("member", 2)]
    assert events_at_raise == 4
    assert run[0] == [("member", i) for i in range(6)] and run[1] == 7


def test_step_processes_exactly_one_member():
    def scenario(env, members, log):
        counts = []
        env.step()  # the timeout
        for _ in range(6):
            before = env.processed_events
            env.step()
            counts.append((env.processed_events - before, len(log)))
        return counts

    separate, run = _both(scenario)
    assert run == separate
    assert run[3] == [(1, i + 1) for i in range(6)]


def test_step_then_run_finishes_the_remainder():
    def scenario(env, members, log):
        env.step()
        env.step()
        env.step()
        env.run()

    separate, run = _both(scenario)
    assert run == separate
    assert run[0] == [("member", i) for i in range(6)]


def test_reserved_ids_keep_later_events_in_order():
    """An event scheduled between two runs sorts between them."""
    env = Environment()
    log = []
    first, second = _triggered(env, 3), _triggered(env, 3)
    between = Event(env)
    between._value = None
    env.schedule_run(first)
    env.schedule(between)
    env.schedule_run(second)
    for name, events in (("a", first), ("b", [between]), ("c", second)):
        for event in events:
            event.callbacks.append(lambda e, name=name: log.append(name))
    env.run()
    assert log == ["a", "a", "a", "b", "c", "c", "c"]
    assert env.processed_events == 7


def test_short_lists_need_no_run():
    env = Environment()
    env.schedule_run([])
    (single,) = _triggered(env, 1)
    env.schedule_run([single])
    assert [type(entry[3]) for entry in env._queue] == [Event]
    env.run()
    assert env.processed_events == 1 and single.processed


def test_queue_capture_refuses_a_run():
    """A snapshot never meets a run: one only exists at ``now`` with work
    pending, which is not a quiet boundary."""
    env = Environment()
    env.schedule_run(_triggered(env, 2))
    assert type(env._queue[0][3]) is EventRun
    with pytest.raises(SimulationError, match="quiet boundary"):
        env.capture_state(SidRegistry())


def test_hooked_run_sees_no_quiet_boundary_inside_a_run():
    env = Environment()
    members = _start(env, 5, as_run=True)
    later = env.timeout(2.0)
    seen = []

    def hook():
        assert not any(type(entry[3]) is EventRun for entry in env._queue)
        seen.append(env.processed_events)
        return env.processed_events + 1

    env.run_hooked(None, 1, hook)
    # Quiet boundaries: after the last member at t=1 and after t=2 — never
    # between members, although the target (1 event) was long reached.
    assert seen == [6, 7]
    assert all(member.processed for member in members) and later.processed


# -- memberless runs: `width` events nobody subscribed to one by one -----------


def _fanout_completion(env, width, memberless, log, at=1.0, before=0, after=0):
    """``width`` completions at ``at`` behind one all-of, between ``before``
    and ``after`` plain events of the same wake: as real events, or as one
    memberless run checking in to an expecting all-of."""
    from repro.des.events import AllOf

    if memberless:
        cond = AllOf.expecting(env, width)
    else:
        members = [Event(env) for _ in range(width)]
        cond = AllOf(env, members)
    cond.callbacks.append(lambda e: log.append("all"))
    plain = [Event(env) for _ in range(before + after)]
    for i, event in enumerate(plain):
        event._value = i
        event.callbacks.append(lambda e, i=i: log.append(("plain", i)))

    def fire(_):
        if memberless:
            block = EventRun(env, None, width)
            block.callbacks.append(cond._check_run)
            completions = [block]
        else:
            for i, event in enumerate(members):
                event._value = i
            completions = members
        env.schedule_run(plain[:before] + completions + plain[before:])

    env.timeout(at).callbacks.append(fire)
    return cond


def _both_forms(scenario, **shape):
    out = []
    for memberless in (False, True):
        env = Environment()
        log = []
        cond = _fanout_completion(env, 5, memberless, log, **shape)
        result = scenario(env, cond, log)
        out.append((log, env.processed_events, env.now, next(env._eid), result))
    return out


@pytest.mark.parametrize("shape", [{}, {"before": 2}, {"after": 2}, {"before": 1, "after": 1}])
def test_memberless_run_counts_and_reserves_like_its_events(shape):
    def scenario(env, cond, log):
        env.run()
        return cond.processed and cond.ok

    events, block = _both_forms(scenario, **shape)
    assert block == events  # log, count, clock and the next insertion id
    extra = shape.get("before", 0) + shape.get("after", 0)
    assert block[1] == 1 + 5 + extra + 2  # timeout, completions, fire check, all-of
    assert block[0][-1] == "all" and block[4] is True


def test_memberless_run_alone_is_a_plain_queue_entry():
    env = Environment()
    log = []
    _fanout_completion(env, 5, True, log)
    env.step()  # the timeout queues the completions
    ((_, _, eid, entry),) = env._queue
    assert type(entry) is EventRun and entry.members is None and entry.width == 5
    assert next(env._eid) == eid + 5  # five ids are the block's
    env.run()
    assert log == ["all"] and env.processed_events == 1 + 5 + 2


def test_step_processes_a_memberless_run_whole():
    env = Environment()
    log = []
    cond = _fanout_completion(env, 5, True, log, before=1, after=1)
    counts = []
    for _ in range(6):
        before = env.processed_events
        env.step()
        counts.append(env.processed_events - before)
    # timeout, plain, the block (five events' worth), plain, fire check, all-of
    assert counts == [1, 1, 5, 1, 1, 1]
    assert log == [("plain", 0), ("plain", 1), "all"] and cond.processed
    with pytest.raises(EmptySchedule):
        env.step()


def test_step_and_run_agree_after_a_block_stepped_out_of_a_run():
    def scenario(env, cond, log):
        env.step()
        env.step()
        env.step()  # events: second completion; block: all five
        env.run()

    events, block = _both_forms(scenario, before=1, after=2)
    assert block == events


def test_hooked_run_sees_no_quiet_boundary_inside_a_memberless_run():
    for memberless in (False, True):
        env = Environment()
        log = []
        _fanout_completion(env, 5, memberless, log)
        later = env.timeout(2.0)
        seen = []

        def hook():
            seen.append(env.processed_events)
            return env.processed_events + 1

        env.run_hooked(None, 1, hook)
        # The target (1 event) is reached by the timeout at t=1, but the
        # instant is quiet only once the all-of has fired: 1 + 5 + 2.
        assert seen == [8, 9] and later.processed


def test_raising_callback_requeues_the_rest_under_the_right_id():
    """A callback of the block raises: what follows it in the run is
    re-queued under the id after the block's five."""
    out = []
    for memberless in (False, True):
        env = Environment()
        log = []
        width = 5
        plain = [Event(env) for _ in range(2)]
        for i, event in enumerate(plain):
            event._value = i
            event.callbacks.append(lambda e, i=i: log.append(("plain", i)))
        between = Event(env)
        between._value = None
        between.callbacks.append(lambda e: log.append("between"))

        def boom(_):
            raise RuntimeError("boom")

        if memberless:
            block = EventRun(env, None, width)
            block.callbacks.append(boom)
            completions = [block]
        else:
            completions = [Event(env) for _ in range(width)]
            for event in completions:
                event._value = None
            completions[-1].callbacks.append(boom)
        env.schedule_run([plain[0], *completions, plain[1]])
        first_id = env._queue[0][2]
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        ((_, _, eid, _),) = env._queue
        assert eid == first_id + 1 + width  # plain[1]'s own id
        env.schedule(between)  # a fresh id: after everything reserved
        env.run()
        out.append((log, env.processed_events))
    assert out[0] == out[1]
    assert out[1] == ([("plain", 0), ("plain", 1), "between"], 1 + 5 + 1 + 1)


def test_urgent_event_between_nested_runs_overtakes_the_rest():
    """A named inner run breaks off for an URGENT entry; so does the outer."""
    env = Environment()
    log = []
    inner_events = _triggered(env, 3)
    inner = EventRun(env, None, 3)
    tail = _triggered(env, 2)

    def spawn(_):
        urgent = Event(env)
        urgent._value = None
        urgent.callbacks.append(lambda e: log.append("urgent"))
        env.schedule(urgent, priority=URGENT)

    for i, event in enumerate(inner_events):
        event.callbacks.append(lambda e, i=i: log.append(("inner", i)))
    inner_events[0].callbacks.append(spawn)
    for i, event in enumerate(tail):
        event.callbacks.append(lambda e, i=i: log.append(("tail", i)))
    env.schedule_run([inner, *tail])
    inner.name_members(inner_events)  # named while queued: an ordinary run
    env.run()
    assert log == [("inner", 0), "urgent", ("inner", 1), ("inner", 2), ("tail", 0), ("tail", 1)]
    assert env.processed_events == 6


def test_expecting_all_of_adopts_events_named_later():
    from repro.des.events import AllOf

    out = []
    for adopt in (False, True):
        env = Environment()
        members = [Event(env) for _ in range(4)]
        cond = AllOf.expecting(env, 4) if adopt else AllOf(env, members)
        if adopt:
            cond.adopt(members)
        log = []
        cond.callbacks.append(lambda e: log.append(sorted(e.value.values())))
        for i, event in enumerate(members):
            event.succeed(i)
        env.run()
        out.append((log, env.processed_events))
    assert out[0] == out[1] == ([[0, 1, 2, 3]], 6)
