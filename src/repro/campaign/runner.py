"""The campaign loop: cache pass, one executor, one iteration, one report.

:class:`CampaignRunner` takes an expanded scenario list and produces a
:class:`CampaignReport`:

* cache hits are answered without executing anything;
* the misses go to **one** executor (:mod:`repro.campaign.executors`) —
  the instance or name given, else ``in-process`` for one worker or one
  pending scenario and ``process-pool`` otherwise — and come back through
  one ``for position, record in executor.run(...)``;
* one crashing scenario is recorded as ``status="failed"`` and the rest
  of the campaign carries on, including after a hard backend death
  (:class:`~repro.campaign.executors.ExecutorBroken`): whatever the
  broken executor had not handed over is re-run through the in-process
  executor;
* a scenario overrunning ``scenario_timeout`` seconds is recorded as
  ``failed`` with ``error_kind: "timeout"`` instead of hanging the sweep.

:func:`run_scenario` is the one envelope every executor (and every queue
worker) runs a scenario in.  Scenario records keep the deterministic
physics (``result``) strictly separated from volatile run metadata
(``wall_s``, ``cached``): the same spec and seed always produce a
byte-identical ``result`` section — on *every* executor — which is what
the regression checker (:mod:`repro.campaign.compare`) diffs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executors import (
    BaseExecutor,
    ExecutorBroken,
    InProcessExecutor,
    executor_names,
    make_executor,
)
from repro.campaign.spec import DEFAULT_SALT, CampaignError, ScenarioSpec, canonical_json

#: Metrics promoted from the summary into aggregate report rows.
REPORT_METRICS = (
    "makespan",
    "mean_wait",
    "mean_turnaround",
    "p95_turnaround",
    "mean_bounded_slowdown",
    "mean_utilization",
    "completed_jobs",
    "killed_jobs",
    "total_reconfigurations",
)

#: Backend used when parallelism is wanted and none was named.
DEFAULT_EXECUTOR = "process-pool"


class ScenarioTimeout(BaseException):
    """A scenario overran its per-scenario deadline.

    Deliberately a ``BaseException``: the deadline is delivered
    asynchronously (``PyThreadState_SetAsyncExc``) and can surface at
    *any* bytecode boundary, including inside a simulation process
    generator.  Engine code catches ``Exception`` to convert process
    crashes into failed events — a timeout must tunnel through those
    handlers (like ``KeyboardInterrupt``) or a defused process failure
    silently swallows the injection and the scenario runs unbounded.
    """


#: Seconds between repeat injections once a deadline has expired.
_REINJECT_INTERVAL = 0.05


@contextmanager
def _scenario_deadline(timeout: Optional[float]) -> Iterator[None]:
    """Raise :class:`ScenarioTimeout` in this thread after ``timeout`` seconds.

    A watchdog thread injects the exception into the scenario thread with
    ``PyThreadState_SetAsyncExc``; delivery happens at the next bytecode
    boundary, which the pure-Python simulation loop crosses constantly.
    Asynchronous delivery is inherently lossy — the pending exception can
    be consumed by whatever ``except`` clause happens to enclose the
    boundary it lands on, or silently discarded as unraisable when it
    lands inside a GC callback (observed in practice: a deadline vanished
    into a callback registered by a test dependency) — so a single
    injection is not a deadline, it is a coin flip.  The watchdog
    therefore keeps re-injecting every :data:`_REINJECT_INTERVAL` seconds
    until the scenario frame actually unwinds and releases it; a stream
    of injections cannot be swallowed transiently.  The same mechanism
    serves every caller: the serial runner (main thread), process-pool
    and queue workers (their own main threads), and an embedding
    application calling ``run_scenario`` from a thread of its own, where
    signals would be unusable anyway.
    """
    if timeout is None or timeout <= 0:
        yield
        return
    import ctypes

    set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    target = ctypes.c_ulong(threading.get_ident())
    finished = threading.Event()

    def _watchdog() -> None:
        if finished.wait(float(timeout)):
            return
        while not finished.is_set():
            set_async_exc(target, ctypes.py_object(ScenarioTimeout))
            if finished.wait(_REINJECT_INTERVAL):
                return

    watchdog = threading.Thread(target=_watchdog, daemon=True, name="scenario-deadline")
    watchdog.start()
    try:
        yield
    finally:
        try:
            finished.set()
            watchdog.join()
            # An injection that lost the race with scenario completion is
            # still pending on this thread.  Spin across enough bytecode
            # boundaries for it to land here, and absorb it — this is the
            # only safe disposal: clearing it with
            # ``PyThreadState_SetAsyncExc(tid, NULL)`` leaves the
            # interpreter's eval-breaker permanently signalled on CPython
            # 3.11, which silently degrades every later profiled run into
            # a near-livelock.
            for _ in range(10000):
                pass
        except ScenarioTimeout:
            pass


def run_scenario(
    scenario: Dict[str, Any],
    trace_dir: Optional[str] = None,
    check_invariants: bool = False,
    timeout: Optional[float] = None,
    *,
    session: Any = None,
) -> Dict[str, Any]:
    """Execute one scenario record end to end (runs inside workers).

    Never raises: any failure — bad spec, unknown algorithm, stalled
    simulation — comes back as a ``status="failed"`` record so a single
    rotten grid point cannot take down the campaign.  Failed records
    carry ``error_kind`` (``"timeout"`` when ``timeout`` seconds elapsed,
    ``"exception"`` otherwise).  With ``trace_dir`` each scenario
    additionally writes ``<name>.trace.jsonl`` there; with
    ``check_invariants`` the flight-recorder invariant checker audits the
    run and failures come back as ``status="invariant_violation"`` with
    the individual violations attached.

    With ``session`` (a :class:`repro.replay.WhatIfSession`; in-process
    only, and neither traced nor audited) the scenario runs through it:
    the first of each compatibility group is cold-run with snapshots,
    later members replay only the suffix after their workload diverges.
    Results are byte-identical to cold runs; records gain ``warm_start``
    (and ``events_saved`` when warm).
    """
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "name": scenario.get("name", "scenario"),
        "params": scenario.get("params", {}),
    }
    try:
        with _scenario_deadline(timeout):
            if session is not None:
                outcome = session.run(scenario)
                record["status"] = "ok"
                record["result"] = outcome.record
                record["warm_start"] = outcome.warm
                if outcome.warm:
                    record["events_saved"] = outcome.events_saved
            else:
                from repro.batch import Simulation

                sim = Simulation.from_spec(scenario)
                until = scenario.get("sim", {}).get("until")
                trace: Optional[Path] = None
                if trace_dir is not None:
                    directory = Path(trace_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    trace = directory / f"{_safe_name(record['name'])}.trace.jsonl"
                    record["trace"] = str(trace)
                try:
                    sim.run(until=until, trace=trace, check_invariants=check_invariants)
                except Exception as exc:
                    from repro.tracing import InvariantViolation

                    if not isinstance(exc, InvariantViolation):
                        raise
                    record["status"] = "invariant_violation"
                    record["error"] = str(exc)
                    record["violations"] = [v.as_dict() for v in exc.violations]
                else:
                    record["status"] = "ok"
                    record["result"] = sim.run_record()
    except ScenarioTimeout as exc:
        record["status"] = "failed"
        record["error"] = f"ScenarioTimeout: {exc}"
        record["error_kind"] = "timeout"
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["error_kind"] = "exception"
    record["wall_s"] = time.perf_counter() - started
    return record


def _safe_name(name: str) -> str:
    """Scenario name → filesystem-safe trace file stem."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name) or "scenario"


class CampaignReport:
    """Ordered scenario records plus campaign-level accounting."""

    def __init__(
        self,
        name: str,
        records: List[Dict[str, Any]],
        *,
        wall_s: float,
        cache_hits: int,
        executed: int,
        workers: int,
        executor: str,
    ) -> None:
        self.name = name
        self.records = records
        self.wall_s = wall_s
        self.cache_hits = cache_hits
        self.executed = executed
        self.workers = workers
        self.executor = executor

    @property
    def failed(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("status") != "ok"]

    @property
    def ok(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("status") == "ok"]

    def rows(self, metrics: Sequence[str] = REPORT_METRICS) -> List[List[Any]]:
        """Aggregate table rows: one per scenario, labels then metrics."""
        rows = []
        for record in self.records:
            summary = record.get("result", {}).get("summary", {})
            rows.append(
                [record["name"], record.get("status", "failed")]
                + [summary.get(metric) for metric in metrics]
            )
        return rows

    def header(self, metrics: Sequence[str] = REPORT_METRICS) -> List[str]:
        return ["scenario", "status", *metrics]

    def as_dict(self, metrics: Sequence[str] = REPORT_METRICS) -> Dict[str, Any]:
        """Aggregate report, same shape as ``BENCH_*.json`` artefacts."""
        header = self.header(metrics)
        return {
            "bench": f"campaign_{self.name}",
            "title": f"campaign {self.name}",
            "header": header,
            "rows": [dict(zip(header, row)) for row in self.rows(metrics)],
            "campaign": {
                "name": self.name,
                "scenarios": len(self.records),
                "failed": len(self.failed),
                "cache_hits": self.cache_hits,
                "executed": self.executed,
                "workers": self.workers,
                "executor": self.executor,
                "wall_s": self.wall_s,
            },
        }

    def write(self, output_dir: Union[str, Path]) -> Dict[str, Path]:
        """Write ``scenarios.jsonl`` + aggregate ``campaign.json``.

        The JSONL stream carries the full per-scenario records (canonical
        spec included); the aggregate is the compact table CI diffs.
        """
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        jsonl = out / "scenarios.jsonl"
        with jsonl.open("w") as stream:
            for record in self.records:
                stream.write(json.dumps(record, sort_keys=True))
                stream.write("\n")
        aggregate = out / "campaign.json"
        aggregate.write_text(json.dumps(self.as_dict(), indent=2))
        return {"scenarios": jsonl, "aggregate": aggregate}


class CampaignRunner:
    """Run a scenario grid over one executor, reusing cached results."""

    def __init__(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        name: str = "campaign",
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        force: bool = False,
        salt: str = DEFAULT_SALT,
        trace_dir: Optional[Union[str, Path]] = None,
        check_invariants: bool = False,
        executor: Union[str, BaseExecutor, None] = None,
        executor_options: Optional[Dict[str, Any]] = None,
        scenario_timeout: Optional[float] = None,
        warm_start: bool = False,
    ) -> None:
        if not scenarios:
            raise CampaignError("campaign has no scenarios")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise CampaignError("scenario names must be unique within a campaign")
        self.scenarios = list(scenarios)
        self.name = name
        self.workers = max(1, int(workers)) if workers is not None else os.cpu_count() or 1
        self.cache = cache
        self.force = force
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.check_invariants = check_invariants
        # Checked and unchecked runs must not share cache entries: a
        # cached plain record would silently skip the invariant audit.
        self.salt = salt + "+invariants" if check_invariants else salt
        if scenario_timeout is not None and float(scenario_timeout) <= 0:
            raise CampaignError(
                f"scenario_timeout must be positive, got {scenario_timeout!r}"
            )
        self.scenario_timeout = (
            float(scenario_timeout) if scenario_timeout is not None else None
        )
        #: The executor instance given, or the registry name given, or None.
        self.executor = executor
        if isinstance(executor, str) and executor not in executor_names():
            raise CampaignError(
                f"unknown executor {executor!r} "
                f"(available: {', '.join(executor_names())})"
            )
        self.executor_options = dict(executor_options or {})
        self.warm_start = bool(warm_start)
        if self.warm_start:
            # Warm starts share one snapshot cache — a session held by the
            # in-process executor; snapshots also cannot coexist with the
            # flight recorder, ruling out tracing and invariant audits.
            if executor is not None:
                raise CampaignError(
                    "warm_start runs on the in-process executor and cannot "
                    "be combined with an explicit executor"
                )
            if self.trace_dir is not None or check_invariants:
                raise CampaignError(
                    "warm_start is incompatible with tracing and invariant "
                    "checks (snapshots cannot be taken from a traced run)"
                )
            self.salt = self.salt + "+warm"

    def run(
        self,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> CampaignReport:
        started = time.perf_counter()
        payloads = [scenario.as_record() for scenario in self.scenarios]
        keys = [scenario.key(salt=self.salt) for scenario in self.scenarios]
        records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)

        pending: List[int] = []
        cache_hits = 0
        for index, key in enumerate(keys):
            cached = None
            # A cache hit has no trace file to offer; when tracing, every
            # scenario must actually execute.
            if self.cache is not None and not self.force and self.trace_dir is None:
                cached = self.cache.lookup(key)
            if cached is not None:
                cached["cached"] = True
                # Labels may legitimately differ between campaigns sharing
                # a cache: this campaign's names win.
                cached["name"] = payloads[index]["name"]
                cached["params"] = payloads[index]["params"]
                records[index] = cached
                cache_hits += 1
                if progress is not None:
                    progress(cached)
            else:
                pending.append(index)

        def finish(index: int, record: Dict[str, Any]) -> None:
            record.setdefault("cached", False)
            record["key"] = keys[index]
            record["scenario"] = payloads[index]
            records[index] = record
            if self.cache is not None:
                # Trace paths are per-invocation artefacts; a future cache
                # hit must not advertise a file it never wrote.
                stored = {k: v for k, v in record.items() if k != "trace"}
                self.cache.store(keys[index], stored)
            if progress is not None:
                progress(record)

        # One executor, one iteration.  A broken backend has handed over
        # only part of its work: what is still missing afterwards goes
        # through the in-process executor, where the same per-scenario
        # isolation applies, instead of killing the campaign.
        label = "cache"
        if pending:
            executor = self._choose_executor(len(pending))
            label = executor.name
            todo = pending
            while todo:
                try:
                    for position, record in executor.run(
                        [payloads[index] for index in todo],
                        trace_dir=self.trace_dir,
                        check_invariants=self.check_invariants,
                        timeout=self.scenario_timeout,
                    ):
                        finish(todo[position], record)
                except ExecutorBroken:
                    pass
                finally:
                    executor.close()
                todo = [index for index in todo if records[index] is None]
                executor = InProcessExecutor()

        final = [r for r in records if r is not None]
        assert len(final) == len(payloads)
        return CampaignReport(
            self.name,
            final,
            wall_s=time.perf_counter() - started,
            cache_hits=cache_hits,
            executed=len(pending),
            workers=self.workers,
            executor=label,
        )

    def _choose_executor(self, pending_count: int) -> BaseExecutor:
        """The instance given, the name given, else what the work calls for."""
        if isinstance(self.executor, BaseExecutor):
            return self.executor
        if self.warm_start:
            # Every scenario feeds (or reuses) the session's snapshots, so
            # later grid points replay only their suffix.
            from repro.replay import WhatIfSession

            return InProcessExecutor(session=WhatIfSession())
        if self.executor is None and (self.workers <= 1 or pending_count <= 1):
            return InProcessExecutor()
        name = self.executor or DEFAULT_EXECUTOR
        options = dict(self.executor_options)
        if name != "in-process":
            options.setdefault("workers", min(self.workers, max(1, pending_count)))
        if name == "queue-worker":
            # Workers must agree with this runner on content addresses and
            # run options, and should dedupe through the same trees.
            options.setdefault("salt", self.salt)
            if self.cache is not None:
                options.setdefault("cache_dir", str(self.cache.root))
                if self.cache.shared is not None:
                    options.setdefault("store_dir", str(self.cache.shared.root))
            options.setdefault(
                "run_options",
                {
                    "trace_dir": self.trace_dir,
                    "check_invariants": self.check_invariants,
                    "scenario_timeout": self.scenario_timeout,
                },
            )
        return make_executor(name, **options)


def result_fingerprint(record: Dict[str, Any]) -> str:
    """Canonical serialisation of the deterministic part of a record.

    Two runs of the same scenario spec — cached or fresh, on any
    executor — must agree byte-for-byte on this string.
    """
    return canonical_json(record.get("result", {}))


__all__ = [
    "DEFAULT_EXECUTOR",
    "REPORT_METRICS",
    "CampaignReport",
    "CampaignRunner",
    "ScenarioTimeout",
    "result_fingerprint",
    "run_scenario",
]
