"""The simulation environment: clock, event queue, main loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Generator, Iterable, Optional, Union

from repro.des.events import (
    AllOf,
    AnyOf,
    Event,
    EventRun,
    NORMAL,
    PooledEvent,
    Timeout,
    URGENT,
)
from repro.des.exceptions import SimulationError, StopSimulation
from repro.des.process import Process


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment of a simulation.

    Maintains the simulated clock (:attr:`now`) and a priority queue of
    triggered events ordered by ``(time, priority, insertion id)``.  The
    insertion id makes runs fully deterministic: events scheduled at the
    same time with the same priority are processed in scheduling order.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = initial_time
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Free list for :class:`PooledEvent` instances (see
        #: :meth:`pooled_event`); capped so pathological bursts don't pin
        #: memory.
        self._event_pool: list[PooledEvent] = []
        #: Total number of events processed; used by the E5 benchmark.
        self.processed_events: int = 0
        #: Optional flight recorder (see :mod:`repro.tracing`); when set,
        #: process creation/termination is recorded on the kernel track.
        #: Kept as a plain attribute so the disabled path costs a single
        #: ``is None`` check.
        self.tracer: Optional[Any] = None

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def __repr__(self) -> str:
        return f"<Environment t={self._now} queued={len(self._queue)}>"

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def pooled_event(self) -> PooledEvent:
        """A recycled kernel-internal event, pre-succeeded with ``None``.

        For the resolve/wake/condition-check pattern: append one callback,
        schedule, forget.  The main loop returns the instance to the pool
        right after processing, so callers must not keep references past
        their callback.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = None
            event._ok = True
            event._defused = False
            return event
        event = PooledEvent(self)
        event._ok = True
        event._value = None
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        proc = Process(self, generator, name=name)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("proc.start", "kernel", proc.name, self._now)
            proc.callbacks.append(
                lambda _event: tracer.instant("proc.end", "kernel", proc.name, self._now)
            )
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        event: Event,
        priority: int = NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Queue ``event`` to be processed after ``delay``."""
        if delay:
            if delay < 0:
                raise ValueError(f"Negative delay {delay}")
            time = self._now + delay
        else:
            # Hot path: most events fire at the current instant; skip the
            # float add (``now + 0.0`` is an identity for the non-negative
            # times the clock takes anyway).
            time = self._now
        heappush(self._queue, (time, priority, next(self._eid), event))

    def schedule_at(
        self,
        event: Event,
        time: float,
        priority: int = NORMAL,
    ) -> None:
        """Queue ``event`` at absolute simulated ``time``.

        Unlike :meth:`schedule`, no ``now + delay`` rounding occurs: the
        event fires at exactly the float passed in, which is what heap-based
        wake-up bookkeeping (the fair-share model's completion horizons)
        needs to match queued times bit-for-bit.  Times in the past are
        clamped to the current instant.
        """
        if time != time:  # NaN would corrupt the heap invariant
            raise ValueError("Cannot schedule at time NaN")
        if time < self._now:
            time = self._now
        heappush(self._queue, (time, priority, next(self._eid), event))

    def schedule_run(self, events: list[Event]) -> None:
        """Queue already-triggered ``events`` at the current instant as one entry.

        Observably the same as ``for event in events: self.schedule(event)``
        — same processing order against every other entry, one processed
        event per member — but the queue holds a single
        :class:`~repro.des.events.EventRun` instead of ``len(events)``
        tuples.  An event that is itself a run (a memberless one stands
        for ``width`` events) takes ``width`` of the ids.  The caller hands
        over the list.
        """
        if not events:
            return
        eid0 = eid = next(self._eid)
        for event in events:
            if type(event) is EventRun:
                event.eid = eid
                eid += event.width
            else:
                eid += 1
        if eid != eid0 + 1:
            self._eid = count(eid)  # the members own the ids in between
        if len(events) > 1:
            run = EventRun(self, events, eid - eid0)
            run.eid = eid0
            heappush(self._queue, (self._now, NORMAL, eid0, run))
        else:
            heappush(self._queue, (self._now, NORMAL, eid0, events[0]))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def step(self) -> None:
        """Process the next event.

        Raises :class:`EmptySchedule` if the queue is empty and propagates
        failures of events nobody handled (defused is False).  A run with
        members is stepped one member at a time; a memberless one (``width``
        events nobody subscribed to, with nothing observable in between) is
        one step that counts ``width`` processed events.
        """
        queue = self._queue
        while True:
            try:
                now, _, eid, event = heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
            if type(event) is EventRun and event.members is not None:
                # One event per step: take the run's next member and put
                # the rest back under the following member's id.
                run, event = event, event.members[event.pos]
                run.pos += 1
                nested = type(event) is EventRun
                if run.pos < len(run.members):
                    run.eid = eid + (event.width if nested else 1)
                    heappush(queue, (now, NORMAL, run.eid, run))
                if nested and event.callbacks is not None:
                    # A member that is a run steps as the entry it would be.
                    heappush(queue, (now, NORMAL, eid, event))
                    continue
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is not None:
                break
            # Cancelled events and duplicate schedules of an already-
            # processed event are dropped without advancing the clock:
            # a defused walltime timer must not drag ``now`` to its
            # original expiry or count as a processed event.
        self._now = now
        # Count before running callbacks: a raising callback (including the
        # StopSimulation control flow) must not desync the E5 event count.
        self.processed_events += 1
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled this failure: crash the run loudly.
            exc = event._value
            raise exc

        if type(event) is PooledEvent and len(self._event_pool) < 128:
            self._event_pool.append(event)

    # -- running -----------------------------------------------------------

    def _arm_stop(self, until: Union[None, float, Event]) -> Optional[Event]:
        """The event whose processing ends a run ``until``; ``None`` for none.

        An event that was already processed comes back as it is
        (``callbacks is None``): there is nothing to run.
        """
        if until is None:
            return None
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                return stop
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(
                    f"until ({at}) must not be earlier than now ({self._now})"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            # URGENT so that the stop fires before user events at `at`.
            self.schedule(stop, priority=URGENT, delay=at - self._now)
        stop.callbacks.append(self._stop_callback)
        return stop

    @staticmethod
    def _run_ended(end: Exception, until: Union[None, float, Event]) -> Any:
        """What a run returns once ``end`` broke its loop."""
        if isinstance(end, StopSimulation):
            return end.value
        if isinstance(until, Event) and until.callbacks is not None:
            raise SimulationError(
                f"No scheduled events left but until={until!r} was not triggered"
            ) from None
        return None

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the queue empties, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion.  A number — run until the clock
            reaches it (the clock is advanced to exactly ``until``).  An
            :class:`Event` — run until it is processed and return its value.
        """
        stop = self._arm_stop(until)
        if stop is not None and stop.callbacks is None:  # already processed
            return stop._value

        # Inlined main loop — identical semantics to step() in a loop, with
        # the per-event overhead shaved: pre-bound heappop/queue/pool
        # locals, no per-step method call, and a fast path for the dominant
        # "single callback" case.
        queue = self._queue
        pop = heappop
        pool = self._event_pool
        try:
            while True:
                while True:
                    if not queue:
                        raise EmptySchedule()
                    now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    if callbacks is not None:
                        event.callbacks = None
                        break
                    # Cancelled / already-processed entries: dropped without
                    # advancing the clock (see step()).
                self._now = now
                self.processed_events += 1
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if type(event) is PooledEvent and len(pool) < 128:
                    pool.append(event)
        except (StopSimulation, EmptySchedule) as end:
            return self._run_ended(end, until)

    def run_hooked(
        self,
        until: Union[None, float, Event],
        next_target: Optional[int],
        hook: Any,
    ) -> Any:
        """Like :meth:`run`, invoking ``hook`` at quiet event-count targets.

        Once :attr:`processed_events` reaches ``next_target`` *and* the
        simulation is at a quiet boundary (queue empty, or the next entry
        strictly in the future — i.e. no more events fire at the current
        instant), ``hook()`` is called and must return the next target (or
        ``None`` to stop hooking).  Quiet boundaries are the only points
        where a snapshot is well-defined: every process is suspended on a
        future event and no kernel-internal work (resolves, condition
        builds) is in flight.

        Kept as a separate copy of the :meth:`run` hot loop so the
        default path pays nothing for the feature.
        """
        stop = self._arm_stop(until)
        if stop is not None and stop.callbacks is None:  # already processed
            return stop._value

        queue = self._queue
        pop = heappop
        pool = self._event_pool
        try:
            while True:
                while True:
                    if not queue:
                        raise EmptySchedule()
                    now, _, _, event = pop(queue)
                    callbacks = event.callbacks
                    if callbacks is not None:
                        event.callbacks = None
                        break
                self._now = now
                self.processed_events += 1
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if type(event) is PooledEvent and len(pool) < 128:
                    pool.append(event)
                if next_target is not None and self.processed_events >= next_target:
                    if not queue or queue[0][0] > now:
                        next_target = hook()
        except (StopSimulation, EmptySchedule) as end:
            return self._run_ended(end, until)

    # -- snapshot/restore ---------------------------------------------------

    def capture_state(self, registry: Any) -> dict:
        """Snapshot the clock, counters and the live event-queue skeleton.

        ``registry`` maps live queued events to stable snapshot ids (see
        :class:`repro.replay.snapshot.SidRegistry`); every owner module must
        have *claimed* its queue-resident events before this runs — an
        unclaimed live entry means some state holder would be silently lost,
        so it is a hard error.  Cancelled entries (``callbacks is None``) are
        dropped: the kernel would discard them without observable effect.

        Each entry records its original insertion id as a *rank*.  Only the
        relative order of ranks is observable (ties in ``(time, priority)``
        break on insertion id), so restore renumbers the queue canonically —
        which both keeps resumed runs byte-identical and gives what-if
        editing a clean way to splice entries between existing ranks.
        """
        entries = []
        for time, priority, eid, event in sorted(self._queue):
            if type(event) is EventRun:
                # A run sits at ``now`` from the instant it is queued until
                # its last member is processed, so a quiet boundary (head
                # strictly in the future) never meets one.
                raise SimulationError(
                    f"Event run queued at t={time}: not at a quiet boundary"
                )
            if event.callbacks is None:
                continue  # cancelled; kernel would drop it silently
            if not event.callbacks:
                # Subscriber-less but not cancelled — e.g. the delay timeout
                # of a killed job whose interrupt unsubscribed the process.
                # Processing it only advances the clock and the event count,
                # so any bare succeeded event reproduces it exactly.
                entries.append([time, priority, eid, "__bare__"])
                continue
            sid = registry.sid_of(event)
            if sid is None:
                raise SimulationError(
                    f"Unclaimed live queue entry at t={time} prio={priority}: "
                    f"{event!r}. Every queued event must be claimed by its "
                    "owning module's capture_state()."
                )
            entries.append([time, priority, eid, sid])
        return {
            "time": self._now,
            "processed_events": self.processed_events,
            "queue": entries,
        }

    def restore_state(self, state: dict, registry: Any) -> None:
        """Rebuild the event queue from a snapshot (see :meth:`capture_state`).

        Ranks are normalized to tuples so a what-if edit can splice an entry
        between rank ``r`` and ``r + 1`` with ``(r, 1, k)`` — tuple order
        puts ``(r,)`` before ``(r, 1, k)`` before ``(r + 1,)``.  Fresh
        insertion ids ``0..n-1`` are assigned in rank order and the id
        counter continues from ``n``.
        """

        def rank_key(entry: list) -> tuple:
            time, priority, rank, _sid = entry
            if isinstance(rank, (list, tuple)):
                return (time, priority, tuple(rank))
            return (time, priority, (rank,))

        queue: list[tuple[float, int, int, Event]] = []
        for n, (time, priority, _rank, sid) in enumerate(
            sorted(state["queue"], key=rank_key)
        ):
            if sid == "__bare__":
                event = Event(self)
                event._ok = True
                event._value = None
            else:
                event = registry.event_of(sid)
            queue.append((time, priority, n, event))
        self._now = state["time"]
        self.processed_events = state["processed_events"]
        self._queue = queue  # sorted list is a valid heap
        self._eid = count(len(queue))
        self._event_pool = []

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # A failed until-event propagates its exception.
        raise event._value
