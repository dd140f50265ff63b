"""Core event types for the DES kernel.

An :class:`Event` is the unit of synchronization: processes yield events and
are resumed when the event is *processed*.  Events move through three states:

``pending``
    created, not yet triggered; may be succeeded/failed at any time.
``triggered``
    has a value and sits in the environment's queue.
``processed``
    its callbacks ran; waiting processes have been resumed.

Priorities order simultaneous events deterministically: ``URGENT`` events
(kernel-internal, e.g. fair-share re-evaluations) run before ``NORMAL`` ones
scheduled for the same instant.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.des.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment


#: Sentinel for "event has no value yet".
PENDING = object()

#: Priority of kernel-internal events; processed first at equal times.
URGENT = 0

#: Default priority of user events.
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (in insertion order) when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.callbacks is None else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError("Event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("Event value not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was marked as handled.

        An unhandled failed event escalates to :meth:`Environment.run` —
        this mirrors SimPy and catches silent error loss in models.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def cancel(self) -> None:
        """Withdraw a scheduled event: its queue entry becomes a no-op.

        The kernel drops cancelled entries without advancing the clock,
        running callbacks, or counting a processed event — this is how a
        walltime watchdog defuses its timer once the job finished, so
        stale timeouts neither bloat the heap walk nor drag ``env.now``
        past the last real event.  Only events nobody subscribed to can
        be cancelled (a waiting process would otherwise never resume);
        cancelling an already-processed event is a no-op.
        """
        if self.callbacks is None:
            return  # already processed
        if self.callbacks:
            raise SimulationError(
                f"Cannot cancel {self!r}: {len(self.callbacks)} subscriber(s) "
                "are waiting on it"
            )
        self.callbacks = None

    # -- triggering -----------------------------------------------------

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback-compatible)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined Environment.schedule(self) — zero delay, NORMAL priority;
        # every activity completion and condition fire goes through here.
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- composition ----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class PooledEvent(Event):
    """A kernel-internal one-shot event recycled through the environment.

    The fair-share model's resolve/wake events and condition build-checks
    are created pre-succeeded, processed once at the current (or a known
    future) instant, and never escape to user code — so the environment
    returns them to a free pool right after their callbacks ran instead of
    leaving one garbage ``Event`` per solve event.  Obtain instances via
    :meth:`Environment.pooled_event` only; callbacks must not retain or
    re-schedule them.  ``Timeout`` events are deliberately *not* pooled:
    they are handed to user code, which may hold references past
    processing (e.g. the walltime watchdog's ``timer.cancel()``) or embed
    them in conditions.
    """

    __slots__ = ()


class EventRun(Event):
    """Several events of one instant queued as *one* entry.

    Built by :meth:`Environment.schedule_run` for events triggered back to
    back at one instant (the completions of one wake-up): the members own
    consecutive insertion ids from ``eid`` on and the run sits in the queue
    under the id of its next member, so every other entry sorts exactly as
    if each member had its own.  Processing the run processes the members
    in order — each counts as one processed event, runs its callbacks and
    escalates an unhandled failure like any queue entry.  Only an entry
    below ``NORMAL`` priority scheduled for the current instant can sort
    before the next member (anything ``NORMAL`` scheduled meanwhile carries
    a larger id), so the walk checks the queue head after each member and,
    on finding one — or when a callback raises — re-queues the remainder
    and returns to the main loop.

    A run may be *memberless* (``members is None``): it stands for ``width``
    events nobody subscribed to one by one — the completions of an intact
    fan-out cohort.  Its entry owns ``width`` insertion ids and processing
    it counts ``width`` processed events, then runs the callbacks
    subscribed to the run itself, once; nothing observable can happen
    between events without subscribers, so the count and the ids are all
    there is to them.  Until it is processed the events can still be named
    (:meth:`name_members`), which makes it an ordinary run.  A member may
    itself be a run: it owns ``width`` of the enclosing run's ids.
    """

    __slots__ = ("members", "width", "eid", "pos")

    def __init__(
        self, env: "Environment", members: Optional[list[Event]], width: int
    ) -> None:
        super().__init__(env)
        self.callbacks = [self._walk]
        self._value = None  # triggered: the run itself carries nothing
        self.members = members
        #: Insertion ids owned: one per event the run stands for.
        self.width = width
        #: Insertion id of the next member; set when the run is queued.
        self.eid = -1
        #: Index of the next member to process.
        self.pos = 0

    def name_members(self, members: list[Event]) -> None:
        """Give a memberless run, not yet processed, its ``width`` events.

        Whoever subscribed to the run subscribes to the members instead:
        the run's own subscriptions are dropped.
        """
        self.members = members
        self.callbacks = [self._walk]

    def _walk(self, _run: Event) -> None:
        env = self.env
        members = self.members
        if members is None:
            # Whoever processes the run counted the first of its events.
            env.processed_events += self.width - 1
            return
        queue = env._queue
        now = env._now
        n = len(members)
        start = i = self.pos
        # Whoever processes the run counted it; the members count themselves.
        env.processed_events -= 1
        try:
            while i < n:
                event = members[i]
                i += 1
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # cancelled: dropped like a cancelled entry
                event.callbacks = None
                env.processed_events += 1
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if queue and queue[0][1] < NORMAL and queue[0][0] == now:
                    break
        finally:
            if i < n:
                for event in members[start:i]:
                    self.eid += event.width if type(event) is EventRun else 1
                self.pos = i
                self.callbacks = [self._walk]
                heappush(queue, (now, NORMAL, self.eid, self))


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Kernel event that starts a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class ConditionValue:
    """Result of a condition: an ordered mapping of fired events to values."""

    __slots__ = ("events",)

    def __init__(self, events: Optional[list[Event]] = None) -> None:
        self.events: list[Event] = [] if events is None else events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return self.events

    def values(self):
        return [e._value for e in self.events]

    def items(self):
        return [(e, e._value) for e in self.events]

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events}


class Condition(Event):
    """Waits for a boolean combination of other events.

    ``evaluate`` receives the list of events and the count of fired ones and
    returns True once the condition is satisfied.  Failures of any composed
    event immediately fail the condition.
    """

    __slots__ = (
        "_evaluate",
        "_events",
        "_count",
        "_build_scheduled",
        "_target",
        "_flat",
    )

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
        expected: int = 0,
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        self._build_scheduled = False
        # Fired-count threshold for the built-in combinators, so the hot
        # _check path compares two ints instead of calling back out.  -1
        # falls through to the general evaluate callable.  ``expected``
        # more check-ins count towards an all-of (:meth:`AllOf.expecting`).
        if evaluate is Condition.all_events:
            self._target = len(self._events) + expected
        elif expected:
            raise ValueError("only an all-of can expect unnamed events")
        elif evaluate is Condition.any_events:
            self._target = 1 if self._events else 0
        else:
            self._target = -1

        # Validate environments and register fire checks in one pass (the
        # engine builds one condition per task fan-out; this loop is hot).
        check = self._check
        #: No member is itself a condition (decided here, in the pass that
        #: exists anyway, so value builds need not look at member types).
        self._flat = True
        for event in self._events:
            if event.env is not env:
                raise ValueError("Cannot mix events from different environments")
            if isinstance(event, Condition):
                self._flat = False
            if event.callbacks is None:  # already processed
                check(event)
            else:
                event.callbacks.append(check)

        # An empty condition is immediately true.
        if not self._events and not expected and self._value is PENDING:
            self.succeed(ConditionValue())

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _build_value(self, event: Event) -> None:
        events = self._events
        if self._flat and self._count >= len(events):
            # Every member is a plain event and has been processed (each
            # fired its check): none still holds a subscription to remove
            # and the value is the member list itself — the whole tail of
            # a task fan-out's all-of, without two walks over the members.
            self.succeed(ConditionValue(events[:]))
            return
        self._remove_check_callbacks()
        if event._ok:
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    def _remove_check_callbacks(self) -> None:
        for event in self._events:
            if event.callbacks is not None and self._check in event.callbacks:
                event.callbacks.remove(self._check)
            if isinstance(event, Condition):
                event._remove_check_callbacks()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Abort on first failure; propagate it.
            event.defuse()
            self.fail(event._value)
            self._remove_check_callbacks()
        elif not self._build_scheduled and (
            self._count >= self._target
            if self._target >= 0
            else self._evaluate(self._events, self._count)
        ):
            self._build_scheduled = True
            # Delay value construction until this event is processed, so the
            # ConditionValue contains every event fired at this instant.
            # Pooled: the check never escapes this closure.
            check = self.env.pooled_event()
            check.callbacks.append(lambda _e: self._build_value(event))
            # NORMAL priority: the fresh insertion id places this after every
            # event already queued for the current instant, so the condition
            # value includes all simultaneously fired members.
            self.env.schedule(check, priority=NORMAL)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """True when *all* events have fired."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """True when *any* event has fired (or there are none)."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition satisfied when every event in ``events`` has succeeded."""

    def __init__(
        self, env: "Environment", events: Iterable[Event], expected: int = 0
    ) -> None:
        super().__init__(env, Condition.all_events, events, expected)

    @classmethod
    def expecting(cls, env: "Environment", count: int) -> "AllOf":
        """An all-of over ``count`` events that do not exist (yet).

        For events nobody has subscribed to one by one — the completions
        of an intact fan-out cohort.  They check in together, through the
        memberless :class:`EventRun` that stands for them
        (``run.callbacks.append(cond._check_run)``), or are named after the
        fact (:meth:`adopt`), from where on this is the ordinary all-of
        over them.  Same queue entries either way: the fire check queued
        by the last check-in, then the condition.  The value lists adopted
        events only.
        """
        return cls(env, (), count)

    def adopt(self, events: list[Event]) -> None:
        """Name the events an :meth:`expecting` all-of waits for.

        Those already processed have checked in (as part of their run);
        the others do so one by one from here on.
        """
        self._events = events
        check = self._check
        for event in events:
            if event.callbacks is not None:
                event.callbacks.append(check)

    def _check_run(self, run: "EventRun") -> None:
        """``run.width`` expected events succeeded: that many ``_check`` calls."""
        if self._value is not PENDING:
            return
        self._count += run.width
        if not self._build_scheduled and self._count >= self._target:
            self._build_scheduled = True
            check = self.env.pooled_event()
            check.callbacks.append(lambda _e: self._build_value(run))
            self.env.schedule(check, priority=NORMAL)


class AnyOf(Condition):
    """Condition satisfied when any event in ``events`` has succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
