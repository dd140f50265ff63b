"""Outside-in attribution of a traced repetition to the program's layers.

While installed, the ledger wraps three public entry points of the program
with spans — ``Simulation.from_spec``, ``Simulation.run`` (with the
algorithm's ``schedule`` wrapped per instance as a child span) and
``repro.replay.capture_snapshot`` — and after every ``run`` it reads the
counters the program already keeps (``FairShareModel`` solve counters and
``solver_time``, ``env.processed_events``, the monitor's summary).  The
program is not edited; spans inside it are a later change.
"""

from __future__ import annotations

from typing import Any, Dict

from harness import Spans

#: Solver counters read off ``sim.batch.model`` before and after a run.
_MODEL_COUNTERS = (
    "resolves",
    "solved_activities",
    "solver_time",
    "fast_solves",
    "scalar_solves",
    "vector_solves",
    "slot_solves",
)


class Ledger:
    """Spans around the program's entry points plus per-repetition counters."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        #: Counters only accumulate while this is set (the timed region).
        self.counting = False
        self.totals: Dict[str, float] = {}
        self._expressions = None
        self._undo = []

    def start_counting(self) -> None:
        """Open the timed region of a repetition: counters start from zero."""
        from repro.expressions import STATS

        self.totals = {}
        self._expressions = STATS.snapshot()
        self.counting = True

    def stop_counting(self) -> None:
        from repro.expressions import STATS

        self.counting = False
        delta = STATS.since(self._expressions)
        self._add("evaluations", delta.evaluations)
        self._add("compiles", delta.compiles)
        self._add("memo_hits", delta.memo_hits + delta.constant_hits)

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        import repro.replay
        from repro.batch import Simulation

        spans = self.spans
        original_from_spec = Simulation.__dict__["from_spec"]
        original_run = Simulation.run
        original_capture = repro.replay.capture_snapshot

        def from_spec(cls, spec, **kwargs):
            with spans.span("batch.from_spec"):
                return original_from_spec.__func__(cls, spec, **kwargs)

        def run(sim, *args, **kwargs):
            algorithm = sim.batch.algorithm
            schedule = algorithm.schedule

            def traced_schedule(ctx, invocation):
                with spans.span("scheduler.schedule"):
                    return schedule(ctx, invocation)

            # Instance attribute: only this simulation's algorithm is wrapped.
            algorithm.schedule = traced_schedule
            before = self._model_counters(sim)
            events = sim.env.processed_events
            invocations = sim.batch.invocations
            try:
                with spans.span("batch.run"):
                    return original_run(sim, *args, **kwargs)
            finally:
                del algorithm.schedule
                if self.counting:
                    self._absorb(sim, before, events, invocations)

        def capture(sim):
            with spans.span("replay.capture"):
                return original_capture(sim)

        Simulation.from_spec = classmethod(from_spec)
        Simulation.run = run
        repro.replay.capture_snapshot = capture
        self._undo = [
            (Simulation, "from_spec", original_from_spec),
            (Simulation, "run", original_run),
            (repro.replay, "capture_snapshot", original_capture),
        ]

    def uninstall(self) -> None:
        for owner, name, original in self._undo:
            setattr(owner, name, original)
        self._undo = []

    # -- counters -------------------------------------------------------------

    @staticmethod
    def _model_counters(sim) -> Dict[str, float]:
        model = sim.batch.model
        return {name: getattr(model, name) for name in _MODEL_COUNTERS}

    def _absorb(self, sim, before: Dict[str, float], events: int, invocations: int) -> None:
        after = self._model_counters(sim)
        for name in _MODEL_COUNTERS:
            self._add(name, after[name] - before[name])
        self.totals["max_scope"] = max(
            self.totals.get("max_scope", 0), sim.batch.model.max_solve_scope
        )
        self._add("events", sim.env.processed_events - events)
        self._add("invocations", sim.batch.invocations - invocations)
        summary = sim.monitor.summary()
        self._add("completed_jobs", summary.completed_jobs)
        self._add("killed_jobs", summary.killed_jobs)
        self._add("reconfigurations", summary.total_reconfigurations)

    def merge(self, totals: Dict[str, Any]) -> None:
        """Add the counters a child process collected with its own ledger."""
        for key, value in totals.items():
            if key == "max_scope":
                self.totals[key] = max(self.totals.get(key, 0), value)
            else:
                self._add(key, value)
