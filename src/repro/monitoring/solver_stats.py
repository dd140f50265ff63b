"""Performance counters of the incremental fair-share solver.

The :class:`~repro.sharing.FairShareModel` partitions activities into
connected components and re-solves only the components touched by each
event.  :class:`SolverStats` snapshots the counters that quantify how well
that scoping worked for a run — the supporting data behind the E5
simulator-performance benchmark and the micro-substrate churn benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class SolverStats:
    """Snapshot of a :class:`~repro.sharing.FairShareModel`'s counters.

    Attributes
    ----------
    resolves:
        Component rate re-computations performed (one per dirty component
        per solve event).
    solve_events:
        Coalesced dirty-set flushes (at most one per simulated instant that
        perturbed the activity set).
    solved_activities:
        Cumulative activities across all component solves — the total
        "solve scope".  ``solved_activities / resolves`` is the mean number
        of activities a re-solve had to look at; a global (non-partitioned)
        solver pays the full running-set size here every time.
    max_solve_scope:
        Largest single component ever solved.
    solver_time:
        Cumulative wall-clock seconds inside ``solve_max_min``.
    merges / splits:
        Component-graph maintenance events (activity starts joining
        components / removals disconnecting one).
    component_count:
        Live components at snapshot time.
    peak_components:
        Most live components observed at once.
    size_histogram:
        Component size → count, at snapshot time.
    fast_solves / scalar_solves / vector_solves:
        How many component solves took the single-activity fast path, the
        scalar progressive-filling loop, and the numpy kernel respectively
        (``fast + scalar + vector == resolves``).  Multi-activity solves
        are ``scalar_solves`` in production, where ``vector_solves`` is 0,
        and ``vector_solves`` on a ``reference=True`` run, where
        ``scalar_solves`` is 0.  Wall-clock-free and deterministic, but
        they *depend* on the engine, so they stay out of
        ``Monitor.run_record()``.
    slot_solves:
        How many of the ``fast_solves`` were served by the struct-of-arrays
        slot table (0 on a reference run).  Like the kernel dispatch
        counts, this depends on the engine and stays out of
        ``Monitor.run_record()``.
    cohorts_admitted / cohort_members / cohorts_dissolved:
        Cohort rows the production engine admitted, the activities in them in
        total, and cohorts *dissolved*.  A row lives in one of two places.
        In the slot table: a fan-out whose every hop is private to its
        member — a compute task, burst-buffer I/O, a ring or pairwise
        exchange on a star — and a lone simple activity, a row of one;
        these are the ``slot_solves``.  In a shared component, beside its
        other activities and rows: a fan-out with a hop every member
        goes through — file-system I/O (the file system's link and
        service), a gather (the root's link); these are solved with their
        component and counted, member for member, in ``resolves``,
        ``solved_activities``, ``max_solve_scope`` and ``size_histogram``
        exactly as the object engine counts the members themselves.  A
        cohort *dissolves* — its members are materialised as objects —
        when one is cancelled (or the whole fan-out killed), gets a
        second user on a hop private to it, is asked for through
        ``Fanout.activities``, or when its component really splits; a
        second user on a *shared* hop is just another member of the
        component.  A run that never singles a member out ends at zero.
        All zero on a reference run: engine-dependent like
        ``slot_solves``, and outside ``Monitor.run_record()`` for the
        same reason.  Counted since the model was built or restored — a
        resumed run does not carry the checkpoint's tallies.
    """

    resolves: int = 0
    solve_events: int = 0
    solved_activities: int = 0
    max_solve_scope: int = 0
    solver_time: float = 0.0
    merges: int = 0
    splits: int = 0
    component_count: int = 0
    peak_components: int = 0
    size_histogram: Dict[int, int] = field(default_factory=dict)
    fast_solves: int = 0
    scalar_solves: int = 0
    vector_solves: int = 0
    slot_solves: int = 0
    cohorts_admitted: int = 0
    cohort_members: int = 0
    cohorts_dissolved: int = 0

    @property
    def mean_solve_scope(self) -> float:
        """Average activities per component re-solve (0 when none ran)."""
        return self.solved_activities / self.resolves if self.resolves else 0.0

    @classmethod
    def from_model(cls, model: Any) -> "SolverStats":
        """Snapshot ``model`` (a :class:`~repro.sharing.FairShareModel`)."""
        admitted, members, dissolved = model.cohort_counts()
        return cls(
            resolves=model.resolves,
            solve_events=model.solve_events,
            solved_activities=model.solved_activities,
            max_solve_scope=model.max_solve_scope,
            solver_time=model.solver_time,
            merges=model.merges,
            splits=model.splits,
            component_count=model.component_count,
            peak_components=model.peak_components,
            size_histogram=model.component_size_histogram(),
            fast_solves=model.fast_solves,
            scalar_solves=model.scalar_solves,
            vector_solves=model.vector_solves,
            slot_solves=model.slot_solves,
            cohorts_admitted=admitted,
            cohort_members=members,
            cohorts_dissolved=dissolved,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "resolves": self.resolves,
            "solve_events": self.solve_events,
            "solved_activities": self.solved_activities,
            "mean_solve_scope": self.mean_solve_scope,
            "max_solve_scope": self.max_solve_scope,
            "solver_time": self.solver_time,
            "merges": self.merges,
            "splits": self.splits,
            "component_count": self.component_count,
            "peak_components": self.peak_components,
            "size_histogram": {str(k): v for k, v in self.size_histogram.items()},
            "fast_solves": self.fast_solves,
            "scalar_solves": self.scalar_solves,
            "vector_solves": self.vector_solves,
            "slot_solves": self.slot_solves,
            "cohorts_admitted": self.cohorts_admitted,
            "cohort_members": self.cohort_members,
            "cohorts_dissolved": self.cohorts_dissolved,
        }
