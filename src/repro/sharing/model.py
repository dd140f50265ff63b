"""Max-min fair sharing of resources among concurrent activities.

The model is the classic fluid one used by SimGrid's L07/network models:
every activity ``a`` progresses at a rate ``r_a`` subject to

* capacity: for each resource ``R``:  ``sum_a u_{a,R} * r_a <= C_R``
* bound:    ``r_a <= bound_a`` (e.g. a single node cannot compute faster
  than its flops rate, a flow cannot exceed its NIC bandwidth)

with the *weighted max-min fair* solution computed by progressive filling:
all unfrozen activities' rates grow proportionally to their weights until a
resource saturates (or a bound is hit); the involved activities freeze; the
process repeats.  Completion times then follow from ``remaining / r_a``.

Because max-min fairness decomposes exactly over the *connected components*
of the bipartite activity↔resource graph (two activities can only influence
each other's rates through a chain of shared resources), the model keeps
that partition incrementally and re-solves only the components actually
touched by a start/cancel/finish — SimGrid's lazy partial invalidation.
Jobs on disjoint nodes stop paying for each other at every event; progress
(``remaining -= rate * dt``) is likewise integrated lazily, only when a
component is perturbed or completes, which is exact because rates are
constant between the events that touch a component.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import inf
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.des.environment import Environment
from repro.des.events import (
    PENDING,
    URGENT,
    AllOf,
    ConditionValue,
    Event,
    EventRun,
    PooledEvent,
)
from repro.des.exceptions import SimulationError


#: Relative slack used when deciding that remaining work hit zero.
_FINISH_TOL = 1e-9


class ActivityCancelled(Exception):
    """Failure value of ``activity.done`` when an activity is cancelled."""

    def __init__(self, activity: "Activity") -> None:
        super().__init__(f"{activity!r} was cancelled")
        self.activity = activity


class SharedResource:
    """A resource with a fixed service capacity shared by activities.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"node03.cpu"`` or ``"pfs.write"``).
    capacity:
        Service rate in work-units/second.  Must be positive and finite
        unless the resource is declared unlimited (``capacity=inf``).
    """

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"Resource {name!r}: capacity must be > 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:
        return f"<SharedResource {self.name} cap={self.capacity:g}>"


class Activity:
    """An amount of work progressing on a set of shared resources.

    Parameters
    ----------
    work:
        Total work (flops, bytes). Zero-work activities complete immediately
        upon execution.
    usages:
        Mapping of resource → usage factor.  An activity running at rate
        ``r`` consumes ``factor * r`` of each resource's capacity.  A plain
        flow over two links uses factor 1.0 on both; a compute task that
        stresses a node at half intensity uses factor 0.5.
    weight:
        Weight for the max-min fair share (default 1.0).
    bound:
        Hard cap on the activity's own rate (default unbounded).
    payload:
        Arbitrary user data carried to completion (used by the engine to
        map activities back to tasks).
    """

    __slots__ = (
        "work",
        "remaining",
        "usages",
        "weight",
        "bound",
        "payload",
        "rate",
        "done",
        "started_at",
        "finished_at",
        "_model",
        "_seq",
    )

    _counter = count()

    def __init__(
        self,
        work: float,
        usages: Dict[SharedResource, float],
        *,
        weight: float = 1.0,
        bound: float = inf,
        payload: Any = None,
    ) -> None:
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if bound <= 0:
            raise ValueError(f"bound must be > 0, got {bound}")
        for res, factor in usages.items():
            if factor <= 0:
                raise ValueError(
                    f"usage factor on {res.name!r} must be > 0, got {factor}"
                )
        self.work = float(work)
        self.remaining = float(work)
        self.usages = dict(usages)
        self.weight = float(weight)
        self.bound = float(bound)
        self.payload = payload
        #: Current progress rate, set by the solver.
        self.rate: float = 0.0
        #: Completion event; assigned when the activity is executed.
        self.done: Optional[Event] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._model: Optional["FairShareModel"] = None
        #: Creation-order id; fixes processing order for determinism.
        self._seq: int = next(Activity._counter)

    @classmethod
    def _raw(
        cls,
        *,
        seq: int,
        work: float,
        remaining: float,
        usages: Dict[SharedResource, float],
        payload: Any,
        rate: float,
        done: Event,
        started_at: Optional[float],
        finished_at: Optional[float],
        model: Optional["FairShareModel"],
        weight: float = 1.0,
        bound: float = inf,
    ) -> "Activity":
        """An activity in a given state: every slot as passed, nothing
        validated, copied or drawn from the id counter.  For the engine's
        own use — materialising cohort members, restoring a snapshot —
        and, beside ``__init__``, the only place that lists the slots.
        """
        act = cls.__new__(cls)
        act.work = work
        act.remaining = remaining
        act.usages = usages
        act.weight = weight
        act.bound = bound
        act.payload = payload
        act.rate = rate
        act.done = done
        act.started_at = started_at
        act.finished_at = finished_at
        act._model = model
        act._seq = seq
        return act

    def __repr__(self) -> str:
        return (
            f"<Activity work={self.work:g} remaining={self.remaining:g} "
            f"rate={self.rate:g} payload={self.payload!r}>"
        )

    @property
    def running(self) -> bool:
        """True while the activity is registered with a model."""
        return self._model is not None


def solve_max_min(activities: Iterable[Union[Activity, "Fanout"]]) -> str:
    """Assign weighted max-min fair rates to ``activities`` in place.

    Implements progressive filling.  Activities with no resource usages are
    only limited by their ``bound`` (infinite bound → infinite rate, which
    the model treats as instantaneous completion of their remaining work).
    An entry may be a *row* — the :class:`Fanout` handle of an intact
    cohort in a shared component — which gets the one rate each of its
    ``len(row)`` unit members would get (see :func:`_solve_scalar`).

    The single-activity fast path and the scalar loop are *bit-identical*
    to the numpy kernel a ``reference=True`` model solves with
    (:mod:`repro.sharing._reference`): same float ops in the same order,
    same freeze order, same tie-breaking, asserted by
    ``tests/sharing/test_vectorized_solver.py``.  Returns the path taken
    (``"fast"`` or ``"scalar"``) for the model's perf counters.
    """
    # Deterministic processing order (creation order): float accumulation
    # and tie-breaking must not depend on set iteration order, or identical
    # runs would diverge across processes.
    acts = list(activities)
    if not acts:
        return "scalar"
    if len(acts) == 1:  # dominant case: skip the sort machinery entirely
        act = acts[0]
        if type(act) is not Fanout:
            _solve_single(act)
            return "fast"
        if act._n == 1:
            act.rate = _unit_rate(act.usages)
            return "fast"
    else:
        acts.sort(key=lambda a: a._seq)
    _solve_scalar(acts)
    return "scalar"


def _solve_single(act: Activity) -> None:
    """One-activity progressive filling (the dominant case in practice:
    activities on disjoint nodes form singleton components)."""
    act.rate = _single_rate(act)


def _single_rate(act: Activity) -> float:
    """The max-min rate of an activity alone in its component, unrolled.

    Replays exactly the float operations the scalar loop performs for one
    activity: one theta round, bound snap included.
    """
    usages = act.usages
    if not usages:
        return act.bound
    w = act.weight
    theta = inf
    for res, factor in usages.items():
        d = factor * w
        if d > 1e-15:
            ratio = res.capacity / d
            if ratio < theta:
                theta = ratio
    bound = act.bound
    limited_by_bound = False
    if bound < inf:
        ratio = (bound - 0.0) / w
        if ratio < theta:
            theta = ratio
            limited_by_bound = True
    if theta == inf:
        return inf
    rate = 0.0
    if theta > 0:
        rate = 0.0 + theta * w
    if bound < inf and rate >= bound * (1 - 1e-12):
        rate = bound
    if limited_by_bound:
        rate = bound
    return rate


def _unit_rate(route: Iterable[SharedResource]) -> float:
    """:func:`_single_rate` of a unit-usage, unit-weight, unbounded activity
    on ``route``, without the activity: the bottleneck capacity.

    Equivalent bit for bit, capacities being positive: every demand is
    ``1.0 * 1.0``, so each ratio is ``capacity / 1.0 == capacity``, theta
    their minimum, and ``0.0 + theta * 1.0 == theta`` (``inf`` when every
    capacity is).  ``tests/sharing/test_cohorts.py`` holds the two together.
    """
    rate = inf
    for res in route:
        if res.capacity < rate:
            rate = res.capacity
    return rate


#: Below this, integer-valued floats add and subtract exactly.
_EXACT = 2.0**52


def _add_units(value: float, units: int) -> float:
    """``value`` plus (minus, for negative ``units``) 1.0, ``abs(units)``
    times over, rounded as that loop rounds.

    An integer-valued float below ``2**52`` takes them all at once: every
    partial sum is an integer below ``2**53``, hence exact either way.
    """
    if value % 1.0 == 0.0 and -_EXACT < value < _EXACT:
        return value + units
    step = 1.0 if units > 0 else -1.0
    for _ in range(abs(units)):
        value += step
    return value


def _solve_scalar(acts: List[Union[Activity, "Fanout"]]) -> None:
    """Reference progressive-filling loop over dicts (creation-ordered).

    A *row* (a :class:`Fanout`: ``n`` unit-weight, unbounded members with
    unit usage on routes that differ in their private hops only) is solved
    as its first member — that is what its ``usages``, ``weight`` and
    ``bound`` describe — plus the other members' unit demand on each shared
    hop, added and withdrawn where theirs would be: the members sit back
    to back in creation order and among each resource's users, their
    private hops have equal capacity and one user each, so they see the
    same increments, freeze in the same round and end at one rate, and the
    first member's private hop wins every tie against its siblings' (it
    comes first).  Same float operations on every value that outlives the
    call as with the members spelled out.
    """
    for act in acts:
        act.rate = 0.0

    # Unconstrained activities progress at their bound.  Ordered dicts
    # stand in for sets to keep iteration deterministic under deletion.
    unfrozen: Dict[Any, None] = {}
    for act in acts:
        if act.usages:
            unfrozen[act] = None
        else:
            act.rate = act.bound

    if not unfrozen:
        return

    # Residual capacity, per-resource weighted demand, and user index —
    # demand is maintained incrementally as activities freeze, which keeps
    # the whole solve at O(edges + iterations x resources) instead of
    # re-summing every resource's users each round.
    residual: Dict[SharedResource, float] = {}
    demand: Dict[SharedResource, float] = {}
    users: Dict[SharedResource, Dict[Any, None]] = {}
    for act in unfrozen:
        for res, factor in act.usages.items():
            if res not in residual:
                residual[res] = res.capacity
                demand[res] = 0.0
                users[res] = {}
            demand[res] += factor * act.weight
            users[res][act] = None
        if type(act) is Fanout and act._n > 1:
            for res in act._shared:
                demand[res] = _add_units(demand[res], act._n - 1)

    bounded: Dict[Activity, None] = {
        act: None for act in unfrozen if act.bound < inf
    }

    while unfrozen:
        # The next rate increment `theta` is limited by the tightest
        # resource or by the closest per-activity bound; remember the
        # limiter so it is frozen even if float drift leaves it a hair
        # short of the saturation tolerance.
        theta = inf
        limiting_res: SharedResource | None = None
        limiting_act: Activity | None = None
        for res, cap in residual.items():
            if not users[res]:
                continue  # stale float residue in demand must not gate theta
            d = demand[res]
            if d > 1e-15:
                ratio = cap / d
                if ratio < theta:
                    theta = ratio
                    limiting_res = res
        for act in bounded:
            ratio = (act.bound - act.rate) / act.weight
            if ratio < theta:
                theta = ratio
                limiting_res = None
                limiting_act = act

        if theta == inf:
            # All remaining activities are unbounded and use only resources
            # without other users (cannot happen: they'd saturate); guard.
            for act in unfrozen:
                act.rate = inf
            break

        if theta > 0:
            for act in unfrozen:
                act.rate += theta * act.weight
        if limiting_res is not None and users[limiting_res] == unfrozen:
            # The limiter serves everything still unfrozen (its users are
            # among them, so equal sizes decide): this is the last round,
            # and all that outlives it is the rates.
            for act in bounded:
                if act.rate >= act.bound * (1 - 1e-12):
                    act.rate = act.bound
            return
        if theta > 0:
            for res in residual:
                residual[res] -= theta * demand[res]

        # Freeze activities on saturated resources or at their bound.
        frozen: Dict[Any, None] = {}
        for res, cap in residual.items():
            if users[res] and cap <= max(1e-12, 1e-12 * res.capacity):
                residual[res] = 0.0
                frozen.update(users[res])
        for act in bounded:
            if act.rate >= act.bound * (1 - 1e-12):
                act.rate = act.bound
                frozen[act] = None
        # Guarantee progress: the entity that determined theta is saturated
        # by construction, even when float drift hides it from the checks.
        if limiting_res is not None and users[limiting_res]:
            frozen.update(users[limiting_res])
            residual[limiting_res] = 0.0
        if limiting_act is not None:
            limiting_act.rate = limiting_act.bound
            frozen[limiting_act] = None

        if not frozen:  # pragma: no cover - defensive; cannot happen now
            frozen = dict(unfrozen)

        for act in frozen:
            if act not in unfrozen:
                continue
            for res, factor in act.usages.items():
                del users[res][act]
                demand[res] -= factor * act.weight
                if not users[res]:
                    demand[res] = 0.0  # drop cancellation residue
            if type(act) is Fanout and act._n > 1:
                for res in act._shared:
                    if users[res]:
                        demand[res] = _add_units(demand[res], 1 - act._n)
            del unfrozen[act]
            bounded.pop(act, None)


def _splice(entries: Dict[Any, None], old: Any, new: List[Any]) -> None:
    """Put ``new`` where ``old`` stands in the ordered set ``entries``."""
    keys = list(entries)
    at = keys.index(old)
    keys[at : at + 1] = new
    entries.clear()
    entries.update(dict.fromkeys(keys))


class Component:
    """One connected component of the activity↔resource graph.

    Carries everything the incremental model needs to leave the component
    alone while nothing touches it: its member activities (ordered dict =
    deterministic iteration), the simulated time its members' ``remaining``
    was last integrated to, and a version stamp that lazily invalidates
    horizon-heap entries pushed for earlier solves.

    An entry of ``acts`` is an :class:`Activity` or a *row*: the
    :class:`Fanout` handle of an intact cohort with a shared hop, standing
    where its ``n`` members would stand, back to back.  ``extra`` is how
    many members the rows hold beyond one per entry, so the component's
    size in activities is ``len(acts) + extra``.
    """

    __slots__ = ("id", "acts", "extra", "last_update", "version", "alive")

    def __init__(self, cid: int, now: float) -> None:
        self.id = cid
        self.acts: Dict[Any, None] = {}
        self.extra = 0
        self.last_update = now
        self.version = 0
        self.alive = True

    def __repr__(self) -> str:
        return f"<Component #{self.id} acts={len(self.acts) + self.extra}>"


class Fanout:
    """Handle of one fan-out: ``len(fanout)`` activities, waited for as one.

    What :meth:`FairShareModel.execute_fanout` returns.  ``done`` fires
    once every member has completed — the all-of over the members'
    ``done`` events — and :meth:`FairShareModel.cancel` takes the handle
    like an activity.

    An *intact cohort* has no member objects: the handle records what the
    members share (work, start time, the flat route list, one payload or
    one per member), the ``_seq`` range reserved for them, and ``done``
    expects ``len(fanout)`` check-ins, which arrive together.  Where it
    lives depends on its routes.  All hops *private* (free, pairwise
    distinct): a row of the :class:`_SlotTable`, which holds its progress.
    Some hop *shared* — the same resource in every route, a file system
    and its link — : a row of that resource's :class:`Component`, the
    handle itself standing among the activities there as its members
    would, back to back: it carries their one ``rate`` and ``remaining``,
    is the user (counting ``n``) of each shared hop and the sole user of
    its private ones, and looks to the solver like its first member
    (``usages``, ``weight``, ``bound``) ``n`` times over.  A cohort of one
    whose resource gets a second user carries on as such a row, every hop
    shared: it has no sibling to be told apart from.

    Whatever singles a member out — reading :attr:`activities` included —
    *materialises* them: real :class:`Activity` objects under the reserved
    ids, in exactly the state per-member bookkeeping would have left them
    in; from there on the handle is the list of them and ``done`` the
    ordinary all-of.  A fan-out no row can hold (reference model, resources
    shared by some members only, unequal capacities, zero work) is
    materialised from birth: ``Fanout(env, activities)``.
    """

    __slots__ = (
        "done",
        "work",
        "rate",
        "remaining",
        "usages",
        "_activities",
        "_n",
        "_seq",
        "_resources",
        "_hops",
        "_shared",
        "_private",
        "_payloads",
        "_started_at",
        "_finished_at",
        "_model",
        "_run",
    )

    #: What every member of a cohort is: unit weight, unbounded.
    weight = 1.0
    bound = inf

    def __init__(self, env: Environment, activities: List[Activity]) -> None:
        """The handle of already-started ``activities``."""
        self._activities: Optional[List[Activity]] = activities
        self._n = len(activities)
        if activities:
            self.done: Event = AllOf(env, [act.done for act in activities])
        else:
            # Nothing to wait for and nothing to queue: already processed.
            done = self.done = Event(env)
            done._value = ConditionValue()
            done.callbacks = None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        state = "intact" if self._activities is None else "materialised"
        return f"<Fanout of {self._n} {state}>"

    @property
    def activities(self) -> List[Activity]:
        """The members, in route order.  Materialises an intact cohort."""
        if self._activities is None:
            model = self._model
            if model is not None:
                model._dissolve(self)
            else:
                self._materialise(0.0, 0.0)
        return self._activities  # type: ignore[return-value]

    def _materialise(self, rate: float, remaining: float) -> List[Activity]:
        """Create an intact cohort's members, as they would stand now.

        Running (``_model`` set): ``rate`` and ``remaining`` are what the
        last solve flush and integration would have written; the caller
        gives them rows.  Completed: finished activities whose ``done``
        events are the members of the completion run if that is still
        queued, processed otherwise.
        """
        model = self._model
        env = self.done.env
        seq0 = self._seq
        work = self.work
        resources = self._resources
        hops = self._hops
        payloads = self._payloads
        per_member = type(payloads) is list
        started_at = self._started_at
        finished_at = None if model is not None else self._finished_at
        run = self._run
        queued = run is not None and run.callbacks is not None
        acts: List[Activity] = []
        events: List[Event] = []
        for k in range(self._n):
            done = Event(env)
            act = Activity._raw(
                seq=seq0 + k,
                work=work,
                remaining=remaining,
                usages=dict.fromkeys(resources[k * hops : (k + 1) * hops], 1.0),
                payload=payloads[k] if per_member else payloads,
                rate=rate,
                done=done,
                started_at=started_at,
                finished_at=finished_at,
                model=model,
            )
            if model is None:
                done._value = act
                if not queued:
                    done.callbacks = None
            acts.append(act)
            events.append(done)
        if queued:
            run.name_members(events)  # type: ignore[union-attr]
        self.done.adopt(events)  # type: ignore[attr-defined]
        self._activities = acts
        self._model = None
        return acts

    def _enter_component(
        self, shared: Tuple[SharedResource, ...], rate: float, remaining: float
    ) -> None:
        """Become a row of a component: ``shared`` are the hops every
        route has, every other resource of the routes is private."""
        self._shared = shared
        self._private = [res for res in self._resources if res not in shared]
        self.usages = dict.fromkeys(self._resources[: self._hops], 1.0)
        self.rate = rate
        self.remaining = remaining

    def _capture(self) -> dict:
        """Snapshot record of an intact, running cohort (JSON-safe; the
        routes are the row's)."""
        payloads = self._payloads
        shared = type(payloads) is not list
        if not shared:
            payloads = [list(p) if p is not None else None for p in payloads]
        elif payloads is not None:
            payloads = list(payloads)
        return {
            "seq": self._seq,
            "n": self._n,
            "work": self.work,
            "hops": self._hops,
            "shared_payload": shared,
            "payloads": payloads,
            "started_at": self._started_at,
        }

    @classmethod
    def _restore(
        cls, model: "FairShareModel", rec: dict, resources: List[SharedResource]
    ) -> "Fanout":
        """Rebuild an intact, running cohort's handle from :meth:`_capture`."""
        payloads = rec["payloads"]
        if not rec["shared_payload"]:
            payloads = [tuple(p) if p is not None else None for p in payloads]
        elif payloads is not None:
            payloads = tuple(payloads)
        return cls._cohort(
            model,
            rec["seq"],
            rec["n"],
            rec["work"],
            resources,
            rec["hops"],
            payloads,
            rec["started_at"],
        )

    @classmethod
    def _cohort(
        cls,
        model: "FairShareModel",
        seq0: int,
        n: int,
        work: float,
        resources: List[SharedResource],
        hops: int,
        payloads: Any,
        started_at: float,
    ) -> "Fanout":
        """The handle of a memberless cohort running on ``model``."""
        fanout = cls.__new__(cls)
        fanout.done = AllOf.expecting(model.env, n)
        fanout._activities = None
        fanout._n = n
        fanout._seq = seq0
        fanout.work = work
        fanout._resources = resources
        fanout._hops = hops
        fanout._payloads = payloads
        fanout._started_at = started_at
        fanout._finished_at = None
        fanout._model = model
        fanout._run = None
        return fanout


class _SlotTable:
    """Struct-of-arrays store of *cohorts* of simple activities (production only).

    A simple activity is the sole user of each resource it uses — a
    compute task on its node's CPU, a flow on its private route (a ring
    step on full-duplex star links: ``up[i]``, ``down[i+1]``): a singleton
    component of the activity↔resource graph, the dominant case by far in
    the reference workloads (E5: 100% of solves).  A task fan-out or a
    communication exchange starts ``n`` of them at one instant with
    identical work and unit usage on ``n`` pairwise-disjoint routes of
    equal per-hop capacity: identical rate, remaining work, finish
    threshold and completion horizon, by construction.  One row of the
    table therefore serves a whole *cohort*, and an intact cohort has no
    members at all, only its :class:`Fanout` handle: ``owner`` is that
    handle, ``n`` the member count, ``ress`` the flat list of the routes
    (``len(ress) // n`` resources each, in member order), plus scalar
    ``rate``, ``thresh``, ``remaining``, ``last``, ``version`` and absolute
    ``horizon`` — one rate computation, one dirty mark, one horizon-heap
    entry, one integration and one finished-check for all members, the
    float operations a singleton component gets, executed once, and no
    per-member write anywhere between admission and completion.  The other
    kind of row is a *row of one*, whose ``owner`` is the
    :class:`Activity` itself: a lone simple activity passed to
    ``execute``, or a member of a dissolved cohort.  Columns are plain
    Python lists indexed by an integer slot (they beat numpy arrays for
    this per-row scalar traffic).  A cohort whose routes have a hop in
    common — file-system I/O — is not simple and not here: it is a row of
    that hop's :class:`Component` (see :class:`Fanout`), and a cohort of
    one moves there, as the handle it is, when a second user arrives.

    The table is an engine-internal mirror: ``Activity.rate`` and
    ``Activity.remaining`` of a row of one are written at exactly the
    observation points the object engine writes them (solve, integrate),
    and a cohort's members are created with the values those writes would
    have left, so external behaviour — including ``run_record`` — is
    byte-identical.  Member ``k`` owns ``_seq`` ``seq0 + k`` and component
    id ``cid + k``: a cohort reserves one of each per member from the
    counters, keeping id sequences (and thus split/merge determinism)
    identical across engines.  A row's ``version`` is bumped on every
    solve *and* on release, so horizon-heap entries referencing a recycled
    slot lazily invalidate, exactly like ``Component.version``.

    A row's max-min rate depends only on quantities that are immutable
    after ``execute`` (resource capacity, usage factor, weight, bound), so
    it is solved once at admission — what a singleton component's solve
    computes (:func:`_single_rate`) — and every re-solve thereafter is
    just a horizon division against the integrated remaining work.  The
    finish threshold ``_FINISH_TOL * (1 + work)`` is likewise constant and
    precomputed.

    Whatever singles a member out — its cancellation, a second user on one
    of its resources (of a cohort of several: one alone is promoted
    whole), a read of ``Fanout.activities`` — first *dissolves*
    the cohort: its members are materialised and given rows of one that
    keep its scalars and are queued under the **same absolute horizon**:
    no integration step happens, so no float drifts, and from there the
    single-member code runs unchanged.
    """

    __slots__ = (
        "owner",
        "n",
        "ress",
        "rate",
        "thresh",
        "remaining",
        "last",
        "version",
        "cid",
        "horizon",
        "free",
        "live",
        "admitted",
        "members",
        "dissolved",
    )

    def __init__(self) -> None:
        #: The intact cohort's handle, or the activity of a row of one.
        self.owner: List[Any] = []
        #: Members in the row, and their routes, flat, in ``_seq`` order.
        self.n: List[int] = []
        self.ress: List[Optional[List[SharedResource]]] = []
        #: Precomputed solved rate (:func:`_single_rate`).
        self.rate: List[float] = []
        #: Precomputed finish threshold ``_FINISH_TOL * (1 + work)``.
        self.thresh: List[float] = []
        self.remaining: List[float] = []
        self.last: List[float] = []
        self.version: List[int] = []
        #: Component id of the first member.
        self.cid: List[int] = []
        #: Absolute completion horizon of the row's live heap entry.
        self.horizon: List[float] = []
        #: Recycled slot indices (stack).
        self.free: List[int] = []
        #: Number of live member activities (each a singleton component).
        self.live: int = 0
        #: Diagnostics (``SolverStats.cohorts_*``): rows admitted, their
        #: members in total, cohorts dissolved (members materialised).
        self.admitted: int = 0
        self.members: int = 0
        self.dissolved: int = 0

    def add(
        self,
        owner: Any,
        n: int,
        ress: List[SharedResource],
        rate: float,
        thresh: float,
        remaining: float,
        last: float,
        cid: int,
    ) -> int:
        """Occupy a slot with one row; returns the slot index."""
        if self.free:
            s = self.free.pop()
            self.owner[s] = owner
            self.n[s] = n
            self.ress[s] = ress
            self.rate[s] = rate
            self.thresh[s] = thresh
            self.remaining[s] = remaining
            self.last[s] = last
            self.cid[s] = cid
        else:
            s = len(self.owner)
            self.owner.append(owner)
            self.n.append(n)
            self.ress.append(ress)
            self.rate.append(rate)
            self.thresh.append(thresh)
            self.remaining.append(remaining)
            self.last.append(last)
            self.version.append(0)
            self.cid.append(cid)
            self.horizon.append(inf)
        return s

    def release(self, s: int) -> None:
        """Vacate a slot; bump its version so heap entries lazily die."""
        self.owner[s] = None
        self.ress[s] = None
        self.version[s] += 1
        self.free.append(s)


class FairShareModel:
    """Drives activities to completion on a DES environment.

    The model partitions running activities into connected components of
    the activity↔resource graph, maintained incrementally: executing an
    activity merges the components of the resources it touches; removing
    one (finish/cancel) rebuilds — scoped to that component only — the
    partition via adjacency flood-fill, and only when the removed activity's
    still-used resources are not reachable from one another without it.

    Only components *touched* by a start/cancel/finish are marked dirty and
    re-solved; every other component keeps its rates, horizon, and
    remaining-work untouched.  Each component records the time its progress
    was last integrated, so ``remaining -= rate * dt`` sweeps are lazy and
    exact (rates are constant between perturbations).  Completion wake-ups
    come from a min-heap of per-component earliest-completion horizons with
    lazy invalidation via component version stamps.

    Determinism: within a component, solving and completion stay pinned to
    activity creation order, and completion events at equal times keep the
    environment's ``(time, priority, insertion id)`` order — workloads
    forming a single component are bit-identical to a global re-solve.

    Parameters
    ----------
    env:
        The DES environment to schedule wake-ups on.
    reference:
        The one engine option.  ``False`` (default) is production: fan-outs
        and lone simple activities are memberless rows (:class:`_SlotTable`,
        rows of shared components), solved by the single-activity fast
        path and the scalar loop.  ``True`` is the slow, obviously-right
        side of every fork the model owns, for differential tests: no row
        anywhere — every activity an object in a :class:`Component`, the
        *object engine* — and every component of two or more solved by
        the numpy kernel of :mod:`repro.sharing._reference`, imported
        here and nowhere else.  ``run_record`` and ``processed_events``
        are byte-identical either way (docs/INTERNALS.md, "Engine paths").

    Event-count bookkeeping (``resolves`` et al.) feeds the E5 simulator
    performance benchmark; see :class:`repro.monitoring.SolverStats`.
    """

    def __init__(self, env: Environment, *, reference: bool = False) -> None:
        self.env = env
        self.reference = reference
        if reference:
            from repro.sharing._reference import solve_max_min as solve
        else:
            solve = solve_max_min
        #: What a dirty component is solved with.
        self._solve = solve
        #: Cohort table for simple (single-resource, sole-user) activities;
        #: ``None`` runs everything through the object engine.
        self._array: Optional[_SlotTable] = None if reference else _SlotTable()
        #: resource → slot of the row its sole (simple) user is in — also how
        #: a row is found from its owner: through any of its resources.
        self._res_slot: Dict[SharedResource, int] = {}
        #: slot indices awaiting a re-solve at the current instant.
        self._dirty_slots: Dict[int, None] = {}
        #: activity → owning component (also the running-activity registry).
        self._comp_of: Dict[Activity, Component] = {}
        #: resource → ordered dict of current users (adjacency index).
        self._res_users: Dict[SharedResource, Dict[Activity, None]] = {}
        #: live components, in creation order.
        self._components: Dict[Component, None] = {}
        #: components awaiting a re-solve at the current instant.
        self._dirty: Dict[Component, None] = {}
        #: lazily-invalidated min-heap of (horizon, entry id, comp, version).
        self._horizon_heap: List[tuple] = []
        self._entry_ids = count()
        #: Next component id; one per activity, a cohort takes a range.
        self._next_cid: int = 0
        self._wake_version: int = 0
        self._resolve_scheduled: bool = False
        #: Queued completion wake-ups and the ``_wake_version`` each was
        #: armed with.  ``_arm_wake`` deliberately never cancels previous
        #: wakes (stale ones no-op via the version check), so several can
        #: sit in the event queue at once; snapshot capture must be able to
        #: enumerate and claim every one of them.  Insertion-ordered.
        self._pending_wakes: Dict[Event, int] = {}

        # -- diagnostics / perf counters (see monitoring.SolverStats) -----
        #: Number of component rate re-computations performed.
        self.resolves: int = 0
        #: Number of coalesced solve events (dirty-set flushes).
        self.solve_events: int = 0
        #: Cumulative activities across all component solves ("solve scope").
        self.solved_activities: int = 0
        #: Largest single component ever solved.
        self.max_solve_scope: int = 0
        #: Cumulative wall-clock seconds spent inside ``solve_max_min``.
        self.solver_time: float = 0.0
        #: Component merges (activity start joining components).
        self.merges: int = 0
        #: Component splits (activity removal disconnecting a component).
        self.splits: int = 0
        #: Most live components observed at once.
        self.peak_components: int = 0
        #: Solve-kernel dispatch counts (see ``solve_max_min``).
        self.fast_solves: int = 0
        self.scalar_solves: int = 0
        self.vector_solves: int = 0
        #: Solves served by the struct-of-arrays slot engine (a subset of
        #: ``fast_solves``: every slot solve is a singleton solve).
        self.slot_solves: int = 0
        #: Optional flight recorder (see :mod:`repro.tracing`); attached by
        #: ``Simulation.run(trace=...)``.  Guarded per flush, so the
        #: disabled path costs one ``is None`` check per solve event.
        self.tracer: Optional[Any] = None

    # -- public API -------------------------------------------------------

    def materialise(self) -> frozenset[Activity]:
        """The running activities, as objects: dissolves every intact cohort.

        A method, not a property, because it changes how the rest of the
        run is executed (never what it computes).  To count, use
        :attr:`component_count` / :meth:`component_sizes`, which do not.
        """
        table = self._array
        if table is not None:
            for owner in list(self._comp_of) + table.owner:
                if type(owner) is Fanout:
                    self._dissolve(owner)
        running = list(self._comp_of)
        if table is not None:
            running += [owner for owner in table.owner if owner is not None]
        return frozenset(running)

    @property
    def component_count(self) -> int:
        """Number of live connected components (slot rows included)."""
        table = self._array
        return len(self._components) + (table.live if table is not None else 0)

    def component_sizes(self) -> List[int]:
        """Sizes of the live components, in component-creation order.

        Cohort members count as the singleton components they are, each
        under its own component id, so both engines report the same list.
        """
        entries = [(comp.id, len(comp.acts) + comp.extra) for comp in self._components]
        table = self._array
        if table is not None:
            for owner, n, cid in zip(table.owner, table.n, table.cid):
                if owner is not None:
                    entries.extend((cid + k, 1) for k in range(n))
        # By id, not by position: a promoted member re-enters
        # ``_components`` late, under the id it has had all along.
        entries.sort()
        return [size for _, size in entries]

    def component_size_histogram(self) -> Dict[int, int]:
        """Mapping of component size → number of components of that size."""
        histogram: Dict[int, int] = {}
        for comp in self._components:
            size = len(comp.acts) + comp.extra
            histogram[size] = histogram.get(size, 0) + 1
        table = self._array
        if table is not None and table.live:
            histogram[1] = histogram.get(1, 0) + table.live
        return dict(sorted(histogram.items()))

    def cohort_counts(self) -> Tuple[int, int, int]:
        """Cohort rows admitted, the members in them, and cohorts dissolved.

        Rows of the slot table and rows of shared components alike.
        Diagnostics of the production engine (all zero on a reference model),
        snapshotted into :class:`repro.monitoring.SolverStats`.
        """
        table = self._array
        if table is None:
            return 0, 0, 0
        return table.admitted, table.members, table.dissolved

    def execute(self, activity: Activity) -> Activity:
        """Start ``activity``; its ``done`` event fires at completion."""
        if activity._model is not None:
            raise ValueError(f"{activity!r} is already running")
        if activity.done is not None:
            raise ValueError(f"{activity!r} was already executed once")
        activity.done = Event(self.env)
        activity.started_at = self.env.now
        if activity.remaining <= 0:
            activity.finished_at = self.env.now
            activity.done.succeed(activity)
            return activity
        for res in activity.usages:
            if res.capacity <= 0:  # defensive; constructor forbids it
                raise ValueError(f"Cannot execute on zero-capacity {res!r}")
        activity._model = self

        usages = activity.usages
        if self._array is not None and len(usages) == 1:
            (res,) = usages
            if res not in self._res_users and res not in self._res_slot:
                # Simple activity: sole user of its one resource — a
                # singleton component, admitted as a row of one.
                self._admit(
                    activity,
                    1,
                    [res],
                    _single_rate(activity),
                    activity.work,
                    activity.remaining,
                )
                self._request_resolve()
                return activity

        comp = self._join(usages)
        comp.acts[activity] = None
        self._comp_of[activity] = comp
        for res in usages:
            self._res_users.setdefault(res, {})[activity] = None
        self._mark_dirty(comp)
        self._request_resolve()
        return activity

    def execute_many(self, activities: Iterable[Activity]) -> None:
        """Start several activities at the current instant, in order."""
        for activity in activities:
            self.execute(activity)

    def execute_fanout(
        self,
        work: float,
        resources: List[SharedResource],
        payloads: Any = None,
        hops: int = 1,
    ) -> Fanout:
        """Start one unit-usage activity of ``work`` per route in ``resources``.

        What a compute task does across its nodes (``hops=1``: one CPU
        each), a communication step across its flows (``hops=2`` on a
        star: ``up[src]``, ``down[dst]``) and file-system I/O across its
        nodes (``hops=3``: the node's link, the file system's link, its
        service), said once: ``resources`` lists the members' routes back
        to back, ``hops`` resources each, and ``payloads`` is one payload
        per member when a list, every member's payload otherwise.
        Observably ``acts = [Activity(work, {res: 1.0, ...}, payload=...)
        for each route]``, ``execute_many(acts)`` and an all-of over their
        ``done`` events — same ``_seq`` and component ids, same events,
        same results on either engine — returned as one :class:`Fanout`
        handle.

        In production the fan-out is one memberless row (no
        activity exists unless one is singled out) when every hop position
        is either *private* — a free resource in each route, all different,
        of one capacity — or *shared* — the same resource in every route,
        in use or not.  All private: a row of the slot table (see
        :class:`_SlotTable`).  Some shared: a row of the component those
        resources are in, next to whatever else uses them.  A single route
        is private while nobody else uses its resources and shared from
        then on.  Anything else — a resource only some routes share,
        unequal capacities, a busy private hop — takes the ordinary
        admission above.  ``resources`` and ``payloads`` are kept by
        reference and never written: the caller may share them between
        calls but must not change them while the fan-out runs.
        """
        total = len(resources)
        if hops < 1 or total % hops:
            raise ValueError(f"{total} resources do not make routes of {hops} hops")
        n = total // hops
        per_member = type(payloads) is list
        if per_member and len(payloads) != n:
            raise ValueError(f"{len(payloads)} payloads for {n} routes")
        cohort = self._array is not None and n > 0 and work > 0
        shared: Tuple[SharedResource, ...] = ()
        if cohort:
            res_users = self._res_users
            res_slot = self._res_slot
            hop = 0  # position within the route: compare with the first route's
            for res in resources:
                if (
                    res in res_slot
                    or res in res_users
                    or res.capacity != resources[hop].capacity
                ):
                    cohort = False
                    break
                hop += 1
                if hop == hops:
                    hop = 0
            else:
                # A resource listed twice would be its own second user.
                cohort = total == 1 or len(set(resources)) == total
            if not cohort:
                # Not private routes throughout.  With a hop every route
                # has — going by the first two; a lone route's all are —
                # and the others private, they make a row of a component.
                if n == 1:
                    shared = tuple(resources)
                else:
                    for hop in range(hops):
                        if resources[hop] is resources[hops + hop]:
                            shared += (resources[hop],)
                if shared:
                    hop = 0
                    for res in resources:
                        lead = resources[hop]
                        if lead in shared:
                            if res is not lead:
                                break
                        elif (
                            res in res_slot
                            or res in res_users
                            or res.capacity != lead.capacity
                        ):
                            break
                        hop += 1
                        if hop == hops:
                            hop = 0
                    else:
                        # One entry per private hop, one per shared position.
                        cohort = len(set(resources)) == total - (n - 1) * len(shared)
        if not cohort:
            acts = [
                Activity(
                    work,
                    dict.fromkeys(resources[k * hops : (k + 1) * hops], 1.0),
                    payload=payloads[k] if per_member else payloads,
                )
                for k in range(n)
            ]
            self.execute_many(acts)
            return Fanout(self.env, acts)

        # The members' ``_seq`` range, reserved; nobody draws them one by one.
        seq0 = next(Activity._counter)
        if n > 1:
            Activity._counter = count(seq0 + n)
        work = float(work)
        fanout = Fanout._cohort(
            self, seq0, n, work, resources, hops, payloads, self.env.now
        )
        if shared:
            self._admit_row(fanout, shared)
        else:
            # Every route has the first one's capacities, hop for hop.
            self._admit(fanout, n, resources, _unit_rate(resources[:hops]), work, work)
        self._request_resolve()
        return fanout

    def cancel(self, activity: Union[Activity, Fanout]) -> None:
        """Abort a running activity; fails its ``done`` with a defused error.

        Cancelling an activity that already finished (or was never started)
        is a no-op, which simplifies engine teardown paths.  A
        :class:`Fanout` cancels member by member, in order — an intact
        cohort in one pass: its members are materialised as cancelled
        (same ``ActivityCancelled``, same failed ``done`` events as a loop
        over them) without ever getting rows of their own.
        """
        if type(activity) is Fanout:
            members = activity._activities
            if members is not None:
                for member in members:
                    self.cancel(member)
            elif activity._model is self:
                table = self._array
                assert table is not None
                comp = self._comp_of.get(activity)
                if comp is not None:
                    self._integrate(comp)
                    remaining = activity.remaining
                    self._remove(activity)
                else:
                    s = self._res_slot[activity._resources[0]]
                    self._integrate_slot(s, self.env.now)
                    remaining = table.remaining[s]
                    self._free_slot(s)
                table.dissolved += 1
                for member in activity._materialise(0.0, remaining):
                    self._cancelled(member)
            return
        if activity._model is not self:
            return
        comp = self._comp_of.get(activity)
        if comp is not None:
            self._integrate(comp)
            self._remove(activity)
        else:
            slot = self._single_slot(next(iter(activity.usages)))
            self._integrate_slot(slot, self.env.now)
            self._free_slot(slot)
        self._cancelled(activity)

    def _cancelled(self, activity: Activity) -> None:
        """Mark a just-deregistered activity cancelled and fail its ``done``."""
        activity._model = None
        activity.rate = 0.0
        if activity.done is not None and not activity.done.triggered:
            exc = ActivityCancelled(activity)
            activity.done.fail(exc)
            activity.done.defuse()
        self._request_resolve()

    def sync_progress(self) -> None:
        """Integrate every component's ``remaining`` up to the current time.

        Lazy accounting leaves untouched components' ``remaining`` stale (at
        the value of their last perturbation, with rates constant since).
        Call this before inspecting ``Activity.remaining`` mid-run; the model
        itself never needs it.
        """
        for comp in self._components:
            self._integrate(comp)
        table = self._array
        if table is not None:
            now = self.env.now
            for slot, owner in enumerate(table.owner):
                if owner is not None:
                    self._integrate_slot(slot, now)

    # -- component maintenance --------------------------------------------

    def _join(self, resources: Iterable[SharedResource]) -> Component:
        """Find-or-create the component a newcomer on ``resources`` belongs
        to, merging every component reachable through them."""
        if self._res_slot:
            # Any slot sharing a resource with the newcomer stops being
            # simple: promote it to a real Component first, then let the
            # ordinary merge machinery below see it as `involved`.
            for res in resources:
                if res in self._res_slot:
                    self._promote_slot(self._single_slot(res))
        involved: List[Component] = []
        res_users = self._res_users
        seen: set[int] = set()
        for res in resources:
            users = res_users.get(res)
            if not users:
                continue
            first = next(iter(users))
            if type(first) is Fanout and res not in first._shared:
                # A second user on a row's private hop singles out the
                # member whose hop it is.
                self._dissolve(first)
                first = next(iter(res_users[res]))
            comp = self._comp_of[first]
            if comp.id not in seen:
                seen.add(comp.id)
                involved.append(comp)

        if not involved:
            comp = Component(self._next_cid, self.env.now)
            self._next_cid += 1
            self._components[comp] = None
            live = self.component_count
            if live > self.peak_components:
                self.peak_components = live
            return comp

        # Union by size (ties: oldest component) keeps merge cost amortized.
        target = max(involved, key=lambda c: (len(c.acts) + c.extra, -c.id))
        self._integrate(target)
        for comp in involved:
            if comp is target:
                continue
            self._integrate(comp)
            for act in comp.acts:
                target.acts[act] = None
                self._comp_of[act] = target
            target.extra += comp.extra
            comp.acts.clear()
            comp.alive = False
            comp.version += 1
            self._components.pop(comp, None)
            self._dirty.pop(comp, None)
            self.merges += 1
        return target

    def _remove(self, activity: Union[Activity, Fanout]) -> None:
        """Detach an activity — or a row, all its members at once —; rebuild
        the partition of its component if the removal can have
        disconnected it (scoped flood-fill, never global)."""
        comp = self._comp_of.pop(activity)
        del comp.acts[activity]
        res_users = self._res_users
        if type(activity) is Fanout:
            comp.extra -= activity._n - 1
            for res in activity._private:
                del res_users[res]
            used: Iterable[SharedResource] = activity._shared
        else:
            used = activity.usages
        for res in used:
            users = res_users[res]
            del users[activity]
            if not users:
                del res_users[res]
        if not comp.acts:
            comp.alive = False
            comp.version += 1
            self._components.pop(comp, None)
            self._dirty.pop(comp, None)
            return
        if not self._still_connected(activity):
            self._split(comp)
        else:
            self._mark_dirty(comp)

    def _still_connected(self, removed: Union[Activity, Fanout]) -> bool:
        """Whether ``removed``'s (connected) component survived in one piece.

        Every other member had a path to ``removed`` whose last hop is one
        of its resources, so it still hangs off one that kept a user: the
        remainder is connected iff those *live* resources reach each other.
        The search stops at the last one found — one hop when they share a
        user, as all traffic to one file system does.  A row's ``usages``
        (its first route) lead wherever its members' do: the other routes
        add private hops only, dead ends.
        """
        res_users = self._res_users
        live = [res for res in removed.usages if res in res_users]
        if len(live) <= 1:
            return True
        start = min(live, key=lambda res: len(res_users[res]))
        seen = {start}
        missing = len(live) - 1
        stack = [start]
        while stack:
            for act in res_users[stack.pop()]:
                for res in act.usages:
                    if res not in seen:
                        seen.add(res)
                        if res in live:
                            missing -= 1
                            if not missing:
                                return True
                        stack.append(res)
        return False

    def _split(self, comp: Component) -> None:
        """Re-derive connected groups of ``comp`` after a removal."""
        if comp.extra:
            # The groups list their members in discovery order, where a
            # row's need not come back to back: they are spelled out first.
            for act in list(comp.acts):
                if type(act) is Fanout and act._n > 1:
                    self._dissolve(act)
        unvisited = dict.fromkeys(comp.acts)
        expanded: set[SharedResource] = set()
        groups: List[List[Any]] = []
        for seed in comp.acts:
            if seed not in unvisited:
                continue
            del unvisited[seed]
            group = [seed]
            stack = [seed]
            while stack:
                act = stack.pop()
                for res in act.usages:
                    if res in expanded:
                        continue  # all its users were discovered then
                    expanded.add(res)
                    for other in self._res_users[res]:
                        if other in unvisited:
                            del unvisited[other]
                            group.append(other)
                            stack.append(other)
            groups.append(group)

        if len(groups) == 1:
            self._mark_dirty(comp)
            return

        comp.alive = False
        comp.version += 1
        self._components.pop(comp, None)
        self._dirty.pop(comp, None)
        self.splits += 1
        for group in groups:
            new = Component(self._next_cid, comp.last_update)
            self._next_cid += 1
            for act in group:
                new.acts[act] = None
                self._comp_of[act] = new
            self._components[new] = None
            self._mark_dirty(new)
        live = self.component_count
        if live > self.peak_components:
            self.peak_components = live

    # -- cohort engine (struct-of-arrays) -----------------------------------

    def _admit(
        self,
        owner: Union[Activity, Fanout],
        n: int,
        ress: List[SharedResource],
        rate: float,
        work: float,
        remaining: float,
    ) -> None:
        """Enter ``n`` simple activities, started this instant, as one row.

        They are identical but for their routes (``ress``, flat: free,
        pairwise distinct, the same capacities hop for hop) and ``rate``
        is their solved rate: its inputs are immutable, so it is computed
        once and the per-resolve work shrinks to a horizon division.
        ``Activity.rate`` is *not* written yet — the object engine only
        writes it at solve flushes, and the first flush happens at this
        same instant anyway.
        """
        table = self._array
        assert table is not None
        s = table.add(
            owner,
            n,
            ress,
            rate,
            _FINISH_TOL * (1 + work),
            remaining,
            self.env.now,
            self._next_cid,
        )
        self._next_cid += n
        table.live += n
        res_slot = self._res_slot
        for res in ress:
            res_slot[res] = s
        self._dirty_slots[s] = None
        table.admitted += 1
        table.members += n
        # Within one admission the total only grows: its end is its peak.
        total = len(self._components) + table.live
        if total > self.peak_components:
            self.peak_components = total

    def _admit_row(self, fanout: Fanout, shared: Tuple[SharedResource, ...]) -> None:
        """Enter an intact cohort as one row of the component its
        ``shared`` hops are in (or now make).

        Joining is what its first member's admission would do: the
        siblings after it would find that very component, nothing left to
        merge and no time to integrate.  ``Fanout.rate`` stays 0.0, like
        ``Activity.rate``, until the solve flush of this same instant.
        """
        table = self._array
        assert table is not None
        n = fanout._n
        fanout._enter_component(shared, 0.0, fanout.work)
        comp = self._join(shared)
        comp.acts[fanout] = None
        comp.extra += n - 1
        self._comp_of[fanout] = comp
        res_users = self._res_users
        for res in shared:
            res_users.setdefault(res, {})[fanout] = None
        if fanout._private:
            # One user each, the same one: one dict says so for all of them
            # (a second user dissolves the row before anything is added).
            res_users.update(dict.fromkeys(fanout._private, {fanout: None}))
        self._dirty[comp] = None
        table.admitted += 1
        table.members += n

    def _free_slot(self, s: int) -> None:
        """Release a row and deregister its resources."""
        table = self._array
        assert table is not None
        res_slot = self._res_slot
        for res in table.ress[s]:  # type: ignore[union-attr]
            del res_slot[res]
        table.live -= table.n[s]
        table.release(s)
        self._dirty_slots.pop(s, None)

    def _single_slot(self, res: SharedResource) -> int:
        """Slot of the row of one using ``res``, dissolving its cohort first."""
        s = self._res_slot[res]
        owner = self._array.owner[s]  # type: ignore[union-attr]
        if type(owner) is Fanout and owner._n > 1:
            self._dissolve(owner)
            s = self._res_slot[res]
        return s

    def _dissolve(self, fanout: Fanout) -> None:
        """Materialise an intact cohort's members where it stands; they
        carry on unchanged.

        Nothing is integrated or re-divided, so no float drifts.  A row of
        a component: the members take its place, back to back, in the
        component and among the users of each shared hop, with its rate
        and remaining work.  A row of the slot table: rows of one with its
        rate, remaining work, integration time and — unless a solve is
        pending anyway — its *absolute* horizon, re-queued as is, so every
        sibling finishes at the instant the cohort would have.
        """
        table = self._array
        assert table is not None
        table.dissolved += 1
        comp = self._comp_of.pop(fanout, None)
        if comp is not None:
            shared = fanout._shared
            members = fanout._materialise(fanout.rate, fanout.remaining)
            _splice(comp.acts, fanout, members)
            comp.extra -= len(members) - 1
            res_users = self._res_users
            for res in shared:
                _splice(res_users[res], fanout, members)
            for act in members:
                self._comp_of[act] = comp
                for res in act.usages:
                    if res not in shared:
                        res_users[res] = {act: None}
            return
        s = self._res_slot[fanout._resources[0]]
        ress = table.ress[s]
        assert ress is not None
        rate = table.rate[s]
        thresh = table.thresh[s]
        remaining = table.remaining[s]
        last = table.last[s]
        cid = table.cid[s]
        horizon = table.horizon[s]
        dirty = s in self._dirty_slots
        self._dirty_slots.pop(s, None)
        table.release(s)
        hops = fanout._hops
        res_slot = self._res_slot
        # A dirty row is one admitted this instant: no solve flush has
        # written ``Activity.rate`` yet.
        members = fanout._materialise(0.0 if dirty else rate, remaining)
        for k, act in enumerate(members):
            route = ress[k * hops : (k + 1) * hops]
            r = table.add(act, 1, route, rate, thresh, remaining, last, cid + k)
            for res in route:
                res_slot[res] = r
            if dirty:
                self._dirty_slots[r] = None
            else:
                table.version[r] += 1
                table.horizon[r] = horizon
                heappush(
                    self._horizon_heap,
                    (horizon, next(self._entry_ids), r, table.version[r]),
                )

    def _promote_slot(self, s: int) -> None:
        """Turn a row of one into a real singleton ``Component`` (same id).

        Happens when a second activity arrives on one of the row's
        resources: the activity (or cohort of one) is no longer "simple",
        so it rejoins the object engine, registered as the user of every
        resource it has.
        Integration runs first, so the component's ``last_update`` and the
        activity's ``remaining`` match what the object engine would hold.
        ``Activity.rate`` is left alone: both engines last wrote it at the
        same solve point (or never, for a row added this instant).
        """
        table = self._array
        assert table is not None
        self._integrate_slot(s, self.env.now)
        act = table.owner[s]
        comp = Component(table.cid[s], table.last[s])
        comp.acts[act] = None
        self._components[comp] = None
        self._comp_of[act] = comp
        ress = table.ress[s]
        assert ress is not None
        for res in ress:
            self._res_users[res] = {act: None}
        was_dirty = s in self._dirty_slots
        if type(act) is Fanout:
            # A cohort of one: a row of the component from here on, every
            # hop shared (its one route is every route).
            act._enter_component(
                tuple(ress), 0.0 if was_dirty else table.rate[s], table.remaining[s]
            )
        self._free_slot(s)
        if was_dirty:
            self._dirty[comp] = None

    def _integrate_slot(self, s: int, now: float) -> None:
        """Integrate a row's remaining work up to the current time ``now``.

        Uses the precomputed rate: time cannot advance between a row's
        admission and its first solve flush (the resolve event fires URGENT
        at the same instant), so whenever ``dt > 0`` the applied rate
        equals the precomputed one.
        """
        table = self._array
        assert table is not None
        dt = now - table.last[s]
        if dt > 0:
            rate = table.rate[s]
            if rate == inf:
                rem = 0.0
            else:
                rem = table.remaining[s] - rate * dt
                if rem < 0.0:
                    rem = 0.0
            table.remaining[s] = rem
            owner = table.owner[s]
            if type(owner) is not Fanout:
                owner.remaining = rem
        table.last[s] = now

    # -- lazy progress ------------------------------------------------------

    def _integrate(self, comp: Component) -> None:
        """Integrate a component's remaining work up to the current time."""
        dt = self.env.now - comp.last_update
        if dt > 0:
            for act in comp.acts:
                rate = act.rate
                if rate == inf:
                    act.remaining = 0.0
                elif rate > 0:
                    act.remaining = max(0.0, act.remaining - rate * dt)
        comp.last_update = self.env.now

    # -- solving ------------------------------------------------------------

    def _mark_dirty(self, comp: Component) -> None:
        self._dirty[comp] = None

    def _request_resolve(self) -> None:
        """Coalesce same-instant set changes into a single re-solve.

        Starting a 64-node compute task adds 64 activities at the same
        timestamp; solving once per addition would be O(n^2).  Instead an
        URGENT zero-delay event triggers one solve after all mutations of
        the current instant are in.
        """
        self._wake_version += 1  # invalidate in-flight wake-ups immediately
        if self._resolve_scheduled:
            return
        self._resolve_scheduled = True
        resolve = self.env.pooled_event()
        resolve.callbacks.append(self._do_resolve)
        self.env.schedule(resolve, priority=URGENT)

    def _do_resolve(self, _event: Event) -> None:
        self._resolve_scheduled = False
        self._flush()

    def _flush(self) -> None:
        """Re-solve every dirty component/slot and re-arm the completion wake."""
        if self._dirty or self._dirty_slots:
            self.solve_events += 1
            now = self.env.now
            solved_components = 0
            solved_scope = 0
            if self._dirty:
                dirty, self._dirty = self._dirty, {}
                for comp in dirty:
                    if not comp.alive or not comp.acts:
                        continue
                    started = perf_counter()
                    path = self._solve(comp.acts)
                    self.solver_time += perf_counter() - started
                    if path == "fast":
                        self.fast_solves += 1
                    elif path == "vector":
                        self.vector_solves += 1
                    else:
                        self.scalar_solves += 1
                    self.resolves += 1
                    size = len(comp.acts) + comp.extra
                    self.solved_activities += size
                    solved_components += 1
                    solved_scope += size
                    if size > self.max_solve_scope:
                        self.max_solve_scope = size

                    horizon = inf
                    for act in comp.acts:
                        if act.rate == inf or act.remaining <= _FINISH_TOL * (1 + act.work):
                            horizon = 0.0
                            break
                        if act.rate > 0:
                            horizon = min(horizon, act.remaining / act.rate)
                    if horizon == inf:
                        # Nothing can progress (all rates zero) — should not
                        # happen with positive capacities; avoid hanging silently.
                        raise RuntimeError(
                            "FairShareModel deadlock: no activity can progress"
                        )
                    comp.version += 1
                    heappush(
                        self._horizon_heap,
                        (now + horizon, next(self._entry_ids), comp, comp.version),
                    )
            if self._dirty_slots:
                slots = list(self._dirty_slots)
                self._dirty_slots.clear()
                n = self._solve_slots(slots, now)
                solved_components += n
                solved_scope += n
            self._compact_heap()
            tracer = self.tracer
            if tracer is not None and solved_components:
                tracer.instant(
                    "solver.resolve",
                    "solver",
                    "resolve",
                    now,
                    components=solved_components,
                    activities=solved_scope,
                )
        self._arm_wake()

    def _solve_slots(self, slots: List[int], now: float) -> int:
        """Re-solve every dirty row; returns how many activities that was.

        Rates were precomputed at admission (:meth:`_admit`), so a re-solve
        reduces to the completion-horizon recomputation: per row, one
        finished check and one ``remaining / rate`` division, then one
        horizon-heap push for all members — the same float operations
        (hence bits) as the object engine's per-component ``_flush`` loop
        performs for each of them.
        """
        table = self._array
        assert table is not None
        started = perf_counter()
        heap = self._horizon_heap
        entry_ids = self._entry_ids
        t_owner = table.owner
        t_n = table.n
        t_rate = table.rate
        version = table.version
        remaining = table.remaining
        thresh = table.thresh
        t_horizon = table.horizon
        count_solved = 0
        for s in slots:
            owner = t_owner[s]
            if owner is None:
                continue
            rate = t_rate[s]
            if type(owner) is not Fanout:
                owner.rate = rate
            rem = remaining[s]
            if rate == inf or rem <= thresh[s]:
                horizon = now
            elif rate > 0:
                horizon = now + rem / rate
            else:
                raise RuntimeError(
                    "FairShareModel deadlock: no activity can progress"
                )
            v = version[s] + 1
            version[s] = v
            t_horizon[s] = horizon
            heappush(heap, (horizon, next(entry_ids), s, v))
            count_solved += t_n[s]
        self.solver_time += perf_counter() - started
        self.resolves += count_solved
        self.fast_solves += count_solved
        self.slot_solves += count_solved
        self.solved_activities += count_solved
        if count_solved and self.max_solve_scope < 1:
            self.max_solve_scope = 1
        return count_solved

    def _compact_heap(self) -> None:
        """Drop stale horizon entries once they dominate the heap."""
        heap = self._horizon_heap
        table = self._array
        live = table.live if table is not None else 0
        if len(heap) > 64 and len(heap) > 4 * (len(self._components) + live):
            if table is None:
                self._horizon_heap = [
                    entry
                    for entry in heap
                    if entry[3] == entry[2].version and entry[2].alive
                ]
            else:
                version = table.version
                owner = table.owner
                fresh = []
                for entry in heap:
                    ref = entry[2]
                    if type(ref) is int:
                        if entry[3] == version[ref] and owner[ref] is not None:
                            fresh.append(entry)
                    elif entry[3] == ref.version and ref.alive:
                        fresh.append(entry)
                self._horizon_heap = fresh
            heapify(self._horizon_heap)

    # -- completion wake-ups -------------------------------------------------

    def _arm_wake(self) -> None:
        """Schedule one wake-up at the earliest valid horizon (comp or slot)."""
        self._wake_version += 1
        heap = self._horizon_heap
        table = self._array
        while heap:
            _, _, ref, version = heap[0]
            if type(ref) is int:
                if version != table.version[ref] or table.owner[ref] is None:  # type: ignore[union-attr]
                    heappop(heap)
                    continue
            elif version != ref.version or not ref.alive or not ref.acts:
                heappop(heap)
                continue
            break
        if not heap:
            return
        version = self._wake_version
        wake = self.env.pooled_event()
        self._pending_wakes[wake] = version
        wake.callbacks.append(lambda _e: self._wake_fired(wake, version))
        self.env.schedule_at(wake, heap[0][0], priority=URGENT)

    def _wake_fired(self, wake: Event, version: int) -> None:
        """Deregister a fired wake-up, then handle it.

        The pop must happen even for stale wakes: once processed, the
        pooled event can be recycled, so leaving it in ``_pending_wakes``
        would let a later snapshot claim an event that now serves an
        unrelated purpose.
        """
        self._pending_wakes.pop(wake, None)
        self._on_wake(version)

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # stale wake-up; the activity set changed since
        now = self.env.now
        heap = self._horizon_heap
        table = self._array
        due: List[Component] = []
        due_slots: List[int] = []
        while heap:
            horizon, _, ref, entry_version = heap[0]
            if type(ref) is int:
                if entry_version != table.version[ref] or table.owner[ref] is None:  # type: ignore[union-attr]
                    heappop(heap)
                    continue
                if horizon > now:
                    break
                heappop(heap)
                due_slots.append(ref)
            else:
                if entry_version != ref.version or not ref.alive or not ref.acts:
                    heappop(heap)
                    continue
                if horizon > now:
                    break
                heappop(heap)
                due.append(ref)
        if not due and not due_slots:
            self._arm_wake()
            return

        # A due row or component whose re-solved horizon would again be
        # ``now`` — ``remaining / rate`` below the float spacing at ``now``
        # — would re-arm this wake with ``dt == 0`` forever: what time can
        # no longer resolve is complete.
        finished: List[Any] = []  # activities, and intact cohorts whole
        for comp in due:
            self._integrate(comp)
            done = [
                act
                for act in comp.acts
                if act.rate == inf or act.remaining <= _FINISH_TOL * (1 + act.work)
            ]
            if not done:
                # Same members, so the re-solve returns the same rates.
                done = [
                    act
                    for act in comp.acts
                    if act.rate > 0 and now + act.remaining / act.rate == now
                ]
            finished += done
            # Always re-solve a component that reached its horizon, even if
            # float drift left nothing quite finished: the new (shorter)
            # horizon re-arms and converges within tolerance.
            self._mark_dirty(comp)
        finished_rows = 0
        for s in due_slots:
            self._integrate_slot(s, now)
            rate = table.rate[s]  # type: ignore[union-attr]
            rem = table.remaining[s]  # type: ignore[union-attr]
            if (
                rate == inf
                or rem <= table.thresh[s]  # type: ignore[union-attr]
                or (rate > 0 and now + rem / rate == now)
            ):
                finished.append(table.owner[s])  # type: ignore[union-attr]
                finished_rows += 1
                self._free_slot(s)
            else:
                self._dirty_slots[s] = None  # re-solve, like a component

        if due or finished_rows > 1:
            # Deterministic completion order (a cohort sorts by its first
            # member: the ``_seq`` range is its own); one row alone is in it.
            finished.sort(key=lambda a: a._seq)
            if due:
                comp_of = self._comp_of
                spelled_out: List[Fanout] = []
                for act in finished:
                    if act in comp_of:
                        self._remove(act)
                    elif type(act) is Fanout and act._activities is not None:
                        # A split earlier in this loop spelled the row
                        # out: its members finish one by one.
                        for member in act._activities:
                            self._remove(member)
                        spelled_out.append(act)
                for act in spelled_out:
                    at = finished.index(act)
                    finished[at : at + 1] = act._activities  # type: ignore[misc]
        env = self.env
        for act in finished:
            act._model = None
            if type(act) is Fanout:
                # No member to write to, no event per member: one
                # memberless run stands for their completions and checks
                # all of them in at once.
                act._finished_at = now
                run = act._run = EventRun(env, None, act._n)
                run.callbacks.append(act.done._check_run)
                continue
            act.remaining = 0.0
            act.rate = 0.0
            act.finished_at = now
            done = act.done
            if done._value is not PENDING:  # type: ignore[union-attr]
                raise SimulationError(f"{done!r} has already been triggered")
            done._value = act  # type: ignore[union-attr]
        # Every completion of this wake, in order, as one queue entry.
        env.schedule_run(
            [act._run if type(act) is Fanout else act.done for act in finished]
        )
        self._flush()

    # -- snapshot/restore ---------------------------------------------------

    def capture_state(self, registry: Any, res_index: Dict[SharedResource, int]) -> dict:
        """Snapshot the model at a quiet boundary (see docs/REPLAY.md).

        ``registry`` receives a claim for every model-owned object another
        module (or the environment's queue walk) may reference: running
        activities under ``act.<seq>``, intact cohorts (their handles —
        nothing is materialised) under ``fan.<seq>`` and queued completion
        wake-ups under ``model.wake.<k>``.  ``res_index`` maps every shared resource to its
        positional index in the platform's deterministic resource walk
        (:meth:`repro.platform.topology` — names are user-controlled and may
        collide, positions cannot).

        Capturing an ``itertools.count`` consumes one tick: the consumed
        value is the snapshot's, and the live run's future ids shift up by
        one uniformly — order-preserving, hence unobservable, since entry
        ids only break heap ties (and activity ``_seq`` only orders
        coexisting activities).
        """
        if self._dirty or self._dirty_slots:
            raise RuntimeError("Cannot snapshot: model has unflushed dirty state")
        if self._resolve_scheduled:
            raise RuntimeError("Cannot snapshot: a resolve event is in flight")
        if self.tracer is not None:
            raise RuntimeError("Cannot snapshot: a tracer is attached to the model")

        table = self._array
        acts = [act for act in self._comp_of if type(act) is not Fanout]
        if table is not None:
            acts += [
                owner
                for owner in table.owner
                if owner is not None and type(owner) is not Fanout
            ]
        acts.sort(key=lambda a: a._seq)
        # Rows of components, whole: the handle's record, its routes (a
        # slot row's are the slot's) and the progress it carries itself.
        row_records = []
        for row in self._comp_of:
            if type(row) is Fanout:
                registry.claim(f"fan.{row._seq}", row)
                row_records.append(
                    {
                        **row._capture(),
                        "ress": [res_index[res] for res in row._resources],
                        "shared": [res_index[res] for res in row._shared],
                        "rate": row.rate,
                        "remaining": row.remaining,
                    }
                )
        act_records = []
        for act in acts:
            sid = f"act.{act._seq}"
            registry.claim(sid, act)
            usages = []
            for res, factor in act.usages.items():
                idx = res_index.get(res)
                if idx is None:
                    raise RuntimeError(
                        f"Activity uses unindexed resource {res!r}; the "
                        "platform resource walk must cover every resource"
                    )
                usages.append([idx, factor])
            act_records.append(
                {
                    "sid": sid,
                    "seq": act._seq,
                    "work": act.work,
                    "remaining": act.remaining,
                    "usages": usages,
                    "weight": act.weight,
                    "bound": act.bound,
                    "payload": list(act.payload) if act.payload is not None else None,
                    "rate": act.rate,
                    "started_at": act.started_at,
                }
            )

        components = [
            {
                "cid": comp.id,
                "last_update": comp.last_update,
                "version": comp.version,
                "acts": [registry.sid_of(a) for a in comp.acts],
            }
            for comp in self._components
        ]
        res_users = []
        for res, users in self._res_users.items():
            first = next(iter(users))
            if type(first) is Fanout and res not in first._shared:
                continue  # a row's private hop: the row's record has it
            res_users.append([res_index[res], [registry.sid_of(a) for a in users]])

        slots = None
        if table is not None:
            # One record per row: a cohort in flight is captured — and
            # resumed — as the memberless row it is, a row of one by the
            # sid of its activity.
            owners: List[Any] = []
            for owner in table.owner:
                if type(owner) is Fanout:
                    registry.claim(f"fan.{owner._seq}", owner)
                    owners.append(owner._capture())
                elif owner is not None:
                    owners.append(f"act.{owner._seq}")
                else:
                    owners.append(None)
            slots = {
                "owner": owners,
                "ress": [
                    [res_index[r] for r in ress] if ress is not None else None
                    for ress in table.ress
                ],
                "rate": list(table.rate),
                "thresh": list(table.thresh),
                "remaining": list(table.remaining),
                "last": list(table.last),
                "version": list(table.version),
                "cid": list(table.cid),
                "horizon": list(table.horizon),
                "free": list(table.free),
            }

        # Live horizon entries only: stale ones (version mismatch, dead or
        # freed referent) would be lazily dropped by _arm_wake/_on_wake
        # without any observable effect, and may reference dead Component
        # objects that cannot be rebuilt.
        heap_records = []
        for time, entry_id, ref, version in sorted(self._horizon_heap):
            if type(ref) is int:
                if table is None or version != table.version[ref] or table.owner[ref] is None:
                    continue
                heap_records.append([time, entry_id, ["slot", ref], version])
            else:
                if version != ref.version or not ref.alive or not ref.acts:
                    continue
                heap_records.append([time, entry_id, ["comp", ref.id], version])

        wakes = []
        for k, (wake, version) in enumerate(self._pending_wakes.items()):
            sid = f"model.wake.{k}"
            registry.claim(sid, wake)
            wakes.append([sid, version])

        return {
            "reference": self.reference,
            "activities": act_records,
            "rows": row_records,
            "act_counter": next(Activity._counter),
            "components": components,
            "res_users": res_users,
            "slots": slots,
            "horizon_heap": heap_records,
            "entry_ids": next(self._entry_ids),
            "comp_ids": self._next_cid,
            "wake_version": self._wake_version,
            "wakes": wakes,
            "counters": {
                "resolves": self.resolves,
                "solve_events": self.solve_events,
                "solved_activities": self.solved_activities,
                "max_solve_scope": self.max_solve_scope,
                "solver_time": self.solver_time,
                "merges": self.merges,
                "splits": self.splits,
                "peak_components": self.peak_components,
                "fast_solves": self.fast_solves,
                "scalar_solves": self.scalar_solves,
                "vector_solves": self.vector_solves,
                "slot_solves": self.slot_solves,
            },
        }

    def restore_state(
        self,
        state: dict,
        registry: Any,
        resources: List[SharedResource],
    ) -> None:
        """Rebuild the model from :meth:`capture_state` output.

        The model must be freshly constructed on the captured engine
        (``reference``); state is rebuilt by direct assignment, never by
        re-admission through :meth:`execute` (which would re-solve,
        re-count and re-schedule).
        Queued wake events are recreated here and claimed in ``registry``
        so the environment's queue restore can re-link them; the event
        pool starts empty — a captured pooled event is never handed back
        out by a restored run.
        """
        if self.reference != state["reference"]:
            raise RuntimeError(
                "Engine-mode mismatch: snapshot was captured with "
                f"reference={state['reference']}"
            )
        env = self.env

        acts_by_sid: Dict[str, Any] = {}
        for rec in state["rows"]:
            row = Fanout._restore(self, rec, [resources[i] for i in rec["ress"]])
            row._enter_component(
                tuple([resources[i] for i in rec["shared"]]),
                rec["rate"],
                rec["remaining"],
            )
            self._res_users.update(dict.fromkeys(row._private, {row: None}))
            sid = f"fan.{row._seq}"
            acts_by_sid[sid] = row
            registry.claim(sid, row)
        for rec in state["activities"]:
            payload = rec["payload"]
            act = Activity._raw(
                seq=rec["seq"],
                work=rec["work"],
                remaining=rec["remaining"],
                usages={resources[i]: factor for i, factor in rec["usages"]},
                payload=tuple(payload) if payload is not None else None,
                rate=rec["rate"],
                done=Event(env),
                started_at=rec["started_at"],
                finished_at=None,
                model=self,
                weight=rec["weight"],
                bound=rec["bound"],
            )
            acts_by_sid[rec["sid"]] = act
            registry.claim(rec["sid"], act)

        comp_by_cid: Dict[int, Component] = {}
        for rec in state["components"]:
            comp = Component(rec["cid"], rec["last_update"])
            comp.version = rec["version"]
            for sid in rec["acts"]:
                act = acts_by_sid[sid]
                comp.acts[act] = None
                self._comp_of[act] = comp
                if type(act) is Fanout:
                    comp.extra += act._n - 1
            self._components[comp] = None
            comp_by_cid[rec["cid"]] = comp

        for idx, sids in state["res_users"]:
            self._res_users[resources[idx]] = {
                acts_by_sid[sid]: None for sid in sids
            }

        table = self._array
        if table is not None:
            slots = state["slots"]
            table.ress = [
                [resources[i] for i in idxs] if idxs is not None else None
                for idxs in slots["ress"]
            ]
            for rec, ress in zip(slots["owner"], table.ress):
                if type(rec) is dict:
                    owner = Fanout._restore(self, rec, ress)
                    registry.claim(f"fan.{owner._seq}", owner)
                    table.owner.append(owner)
                    table.n.append(len(owner))
                else:
                    table.owner.append(acts_by_sid[rec] if rec is not None else None)
                    table.n.append(1)
            table.rate = list(slots["rate"])
            table.thresh = list(slots["thresh"])
            table.remaining = list(slots["remaining"])
            table.last = list(slots["last"])
            table.version = list(slots["version"])
            table.cid = list(slots["cid"])
            table.horizon = list(slots["horizon"])
            table.free = list(slots["free"])
            for s, owner in enumerate(table.owner):
                if owner is not None:
                    table.live += table.n[s]
                    self._res_slot.update(dict.fromkeys(table.ress[s], s))

        heap: List[tuple] = []
        for time, entry_id, (kind, ref), version in state["horizon_heap"]:
            heap.append(
                (
                    time,
                    entry_id,
                    ref if kind == "slot" else comp_by_cid[ref],
                    version,
                )
            )
        self._horizon_heap = heap  # sorted at capture: a valid heap

        self._entry_ids = count(state["entry_ids"] + 1)
        self._next_cid = state["comp_ids"]
        self._wake_version = state["wake_version"]
        for sid, version in state["wakes"]:
            wake = PooledEvent(env)
            wake._ok = True
            wake._value = None
            self._pending_wakes[wake] = version
            wake.callbacks.append(
                lambda _e, w=wake, v=version: self._wake_fired(w, v)
            )
            registry.claim(sid, wake)

        # The class-global activity counter only ever moves forward: new
        # activities must outrank every restored _seq (relative order is
        # all the determinism contract needs), but rewinding would break
        # other live simulations in the same process.
        cur = next(Activity._counter)
        if cur < state["act_counter"]:
            Activity._counter = count(state["act_counter"] + 1)

        counters = state["counters"]
        self.resolves = counters["resolves"]
        self.solve_events = counters["solve_events"]
        self.solved_activities = counters["solved_activities"]
        self.max_solve_scope = counters["max_solve_scope"]
        self.solver_time = counters["solver_time"]
        self.merges = counters["merges"]
        self.splits = counters["splits"]
        self.peak_components = counters["peak_components"]
        self.fast_solves = counters["fast_solves"]
        self.scalar_solves = counters["scalar_solves"]
        self.vector_solves = counters["vector_solves"]
        self.slot_solves = counters["slot_solves"]
