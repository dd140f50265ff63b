"""The five user journeys the benchmark times, each as set-up, timed region, check.

A journey calls only public functions of the program and receives only
inputs made by ``gen.py``.  ``setup()`` is everything before the timed
region, ``run()`` is the timed region, ``check()`` (never timed) verifies the
outputs and returns their fingerprint plus the counts that must repeat
exactly from repetition to repetition.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import gen
from harness import Spans, fingerprint, perf_counter
from ledger import Ledger

HERE = Path(__file__).resolve().parent


class Tables:
    """Self-time tables of one traced repetition: whole, set-up part, timed part."""

    def __init__(self, spans: Spans) -> None:
        self.all = spans.table()
        self.setup = spans.table("setup")
        self.run = spans.table("run")

    def mean(self, name: str) -> float:
        """Mean duration in seconds of the spans called ``name``."""
        row = self.all[name]
        return row["total_s"] / row["count"]


class CheckError(Exception):
    """A repetition produced a wrong or incomplete output."""


class Journey:
    """One workload: inputs from the seed, then ``setup`` / ``run`` / ``check``."""

    name = ""
    #: In-process journeys discard one warm-up repetition (intern caches,
    #: lazy imports); a fresh process per repetition pays start-up every time.
    in_process = True

    def __init__(
        self, seed: int, quick: bool, workdir: Path, spans: Spans, ledger: Ledger
    ) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.spans = spans
        self.ledger = ledger
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{self.name}-{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> Any:
        raise NotImplementedError

    def timed_setup(self) -> Tuple[Any, float]:
        """One set-up and how long it took."""
        start = perf_counter()
        state = self.setup()
        return state, perf_counter() - start

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, result: Any) -> Tuple[str, Dict[str, Any]]:
        raise NotImplementedError

    def profiled_calls(self, state: Any) -> int:
        """Python-level calls the timed region makes (deterministic cost proxy)."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            self.run(state)
        finally:
            profiler.disable()
        return sum(entry.callcount for entry in profiler.getstats())

    def layers(self, tables: Tables, state: Any, result: Any) -> Dict[str, float]:
        """Per-layer metrics only this journey's traced repetition can give."""
        return {}

    def discard(self, state: Any, result: Any = None) -> None:
        """Remove what a repetition left on disk (not timed)."""


def _solver_counts(monitor) -> Dict[str, Any]:
    solver, expressions = monitor.solver, monitor.expressions
    return {
        "resolves": solver.resolves,
        "solved_activities": solver.solved_activities,
        "max_scope": solver.max_solve_scope,
        "slot_solves": solver.slot_solves,
        "fast_solves": solver.fast_solves,
        "scalar_solves": solver.scalar_solves,
        "vector_solves": solver.vector_solves,
        "evaluations": expressions.evaluations,
    }


class SimJourney(Journey):
    """``Simulation.from_spec`` (set-up), then ``run`` and ``run_record`` (timed)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spec = gen.WORKLOADS[self.name](self.seed, self.quick)
        self.num_jobs = len(self.spec["workload"]["inline"]["jobs"])

    def setup(self):
        from repro import Simulation

        return Simulation.from_spec(self.spec)

    def run(self, sim):
        monitor = sim.run()
        with self.spans.span("monitoring.record"):
            record = monitor.run_record()
        return sim, record

    def check(self, result):
        sim, record = result
        summary = record["summary"]
        if summary["completed_jobs"] != self.num_jobs:
            raise CheckError(
                f"{summary['completed_jobs']} of {self.num_jobs} jobs completed "
                f"({summary['killed_jobs']} killed)"
            )
        counts = {
            "events": record["processed_events"],
            "invocations": sim.batch.invocations,
            "reconfigurations": summary["total_reconfigurations"],
            **_solver_counts(sim.monitor),
        }
        return fingerprint(record), counts


class RigidSched(SimJourney):
    name = "rigid_sched"


class MalleableIo(SimJourney):
    name = "malleable_io"


class ColdCli(Journey):
    """``python -m repro run`` in a fresh process, from spawn to exit."""

    name = "cold_cli"
    in_process = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        inputs = gen.cold_cli(self.seed, self.quick)
        self.num_jobs = len(inputs["workload"]["jobs"])
        platform_file = self.workdir / "cold_cli-platform.json"
        workload_file = self.workdir / "cold_cli-workload.json"
        platform_file.write_text(json.dumps(inputs["platform"]))
        workload_file.write_text(json.dumps(inputs["workload"]))
        self.files = [
            "--platform", str(platform_file),
            "--workload", str(workload_file),
            "--algorithm", inputs["algorithm"],
        ]  # fmt: skip
        # Users pay interpreter start-up and imports on every run, but
        # bytecode compilation only once per checkout: do that here.
        subprocess.run(
            [sys.executable, "-c", "import repro.cli, repro.monitoring.gantt"],
            check=True, capture_output=True,
        )  # fmt: skip

    def _driver(self, *extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "cli_driver.py"), *self.files, *extra],
            capture_output=True, text=True,
        )  # fmt: skip

    def timed_setup(self):
        """Process spawn until the ``Simulation`` object exists, by the driver."""
        spawned = time.time()
        proc = self._driver("--stop", "constructed")
        if proc.returncode != 0:
            raise CheckError(f"cli_driver failed: {proc.stderr.strip()[-400:]}")
        return self.fresh_dir("out"), float(proc.stdout) - spawned

    def run(self, outdir: Path):
        if self.spans.enabled:
            return self._run_traced(outdir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", *self.files, "--output-dir", str(outdir)],
            capture_output=True, text=True,
        )  # fmt: skip
        return proc, outdir

    def _run_traced(self, outdir: Path, profile: bool = False):
        """The journey through the driver, which records spans and counters."""
        report_file = outdir / "driver-report.json"
        extra = ["--output-dir", str(outdir), "--report", str(report_file)]
        with self.spans.span("cli.process"):
            proc = self._driver(*extra, *(["--profile"] if profile else []))
            if proc.returncode == 0:
                report = json.loads(report_file.read_text())
                if self.spans.enabled:
                    self.spans.adopt(report["spans"], self.spans.current())
                if self.ledger.counting:
                    self.ledger.merge(report["ledger"])
                self.last_report = report
        return proc, outdir

    def check(self, result):
        proc, outdir = result
        if proc.returncode != 0:
            raise CheckError(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        summary_text = (outdir / "summary.json").read_text()
        summary = json.loads(summary_text)
        if summary["completed_jobs"] != self.num_jobs:
            raise CheckError(f"{summary['completed_jobs']} of {self.num_jobs} jobs completed")
        counts = {
            "completed_jobs": summary["completed_jobs"],
            "killed_jobs": summary["killed_jobs"],
            "reconfigurations": summary["total_reconfigurations"],
        }
        return fingerprint([summary_text, (outdir / "jobs.csv").read_text()]), counts

    def profiled_calls(self, outdir: Path) -> int:
        proc, _ = self._run_traced(outdir, profile=True)
        if proc.returncode != 0:
            raise CheckError(f"profiled driver failed: {proc.stderr.strip()[-400:]}")
        return self.last_report["pycalls"]

    def discard(self, state, result=None) -> None:
        shutil.rmtree(state, ignore_errors=True)


class CampaignSweep(Journey):
    """Cold pass over part of a grid, mixed pass over all of it, warm pass, report."""

    name = "campaign_sweep"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        inputs = gen.campaign_sweep(self.seed, self.quick)
        self.grid: List[dict] = inputs["grid"]
        self.first: int = inputs["first"]
        self.jobs_per_scenario = len(self.grid[0]["workload"]["inline"]["jobs"])

    def setup(self):
        from repro.campaign import ResultCache, ScenarioSpec

        with self.spans.span("campaign.expand"):
            scenarios = [ScenarioSpec(**entry) for entry in self.grid]
            keys = [scenario.key() for scenario in scenarios]
        root = self.fresh_dir("rep")
        return scenarios, keys, ResultCache(root / "cache"), root

    def run(self, state):
        from repro.campaign import CampaignRunner

        scenarios, _, cache, root = state

        def sweep(label: str, subset):
            with self.spans.span(f"campaign.run.{label}"):
                return CampaignRunner(
                    subset, name=f"bench-{label}", executor="in-process", cache=cache
                ).run()

        cold = sweep("cold", scenarios[: self.first])
        mixed = sweep("mixed", scenarios)
        warm = sweep("warm", scenarios)
        with self.spans.span("campaign.report"):
            warm.write(root / "report")
        return cold, mixed, warm, cache

    def layers(self, tables: Tables, state, result) -> Dict[str, float]:
        """The ``campaign.*`` metrics of one traced repetition."""
        from repro.campaign import ResultCache

        scenarios, keys, _, root = state
        cold, mixed, _, cache = result
        cold_s = tables.run["campaign.run.cold"]["total_s"]
        executed = [r for r in cold.records + mixed.records if not r["cached"]]
        cold_sim_s = sum(r["wall_s"] for r in cold.records)
        start = perf_counter()
        for scenario in scenarios:
            scenario.key()
        key_s = perf_counter() - start
        scratch = ResultCache(root / "scratch-cache")
        start = perf_counter()
        for key, record in zip(keys, mixed.records):
            scratch.store(key, record)
        store_s = perf_counter() - start
        start = perf_counter()
        for key in keys:
            scratch.lookup(key)
        lookup_s = perf_counter() - start
        return {
            "campaign.expand_ms": 1e3 * tables.mean("campaign.expand"),
            "campaign.key_us": 1e6 * key_s / len(scenarios),
            "campaign.cold_s": cold_s,
            "campaign.mixed_s": tables.run["campaign.run.mixed"]["total_s"],
            "campaign.warm_ms": 1e3 * tables.run["campaign.run.warm"]["total_s"],
            "campaign.sim_s": sum(r["wall_s"] for r in executed),
            "campaign.overhead_ms_per_scenario": 1e3 * (cold_s - cold_sim_s) / self.first,
            "campaign.overhead_frac": (cold_s - cold_sim_s) / cold_s,
            "campaign.cache_hits": cache.hits,
            "campaign.cache_misses": cache.misses,
            "campaign.lookup_us": 1e6 * lookup_s / len(keys),
            "campaign.store_us": 1e6 * store_s / len(keys),
            "campaign.report_ms": 1e3 * tables.run["campaign.report"]["total_s"],
        }

    def check(self, result):
        cold, mixed, warm, cache = result
        total, first = len(self.grid), self.first
        for report in (cold, mixed, warm):
            if report.failed:
                bad = report.failed[0]
                raise CheckError(f"scenario {bad['name']} failed: {bad.get('error')}")
        expected = [(0, first), (first, total - first), (total, 0)]
        for report, (hits, executed) in zip((cold, mixed, warm), expected):
            if (report.cache_hits, report.executed) != (hits, executed):
                raise CheckError(
                    f"{report.name}: {report.cache_hits} hits / {report.executed} "
                    f"executed, expected {hits} / {executed}"
                )
        prints = [fingerprint(record["result"]) for record in mixed.records]
        if prints[:first] != [fingerprint(r["result"]) for r in cold.records]:
            raise CheckError("mixed pass disagrees with the cold pass")
        if prints != [fingerprint(r["result"]) for r in warm.records]:
            raise CheckError("warm pass disagrees with the mixed pass")
        for record in mixed.records:
            done = record["result"]["summary"]["completed_jobs"]
            if done != self.jobs_per_scenario:
                raise CheckError(f"scenario {record['name']}: {done} jobs completed")
        counts = {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "events": sum(r["result"]["processed_events"] for r in mixed.records),
            "resolves": sum(r["result"]["solver"]["resolves"] for r in mixed.records),
        }
        return fingerprint(prints), counts

    def discard(self, state, result=None) -> None:
        shutil.rmtree(state[3], ignore_errors=True)


class WhatIfEdit(Journey):
    """Base run with checkpoints saved (set-up); load them and replay two edits (timed)."""

    name = "whatif_edit"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        inputs = gen.whatif_edit(self.seed, self.quick)
        self.base: dict = inputs["base"]
        self.snapshot_every: int = inputs["snapshot_every"]
        self.edit_fractions = inputs["edit_fractions"]
        #: Chosen after the first base run, from where its checkpoints fell.
        self.edits: List[dict] = []
        self.num_jobs = len(self.base["workload"]["inline"]["jobs"])
        self._cold: Optional[List[dict]] = None

    def setup(self):
        from repro.replay import run_with_snapshots

        record, snapshots = run_with_snapshots(self.base, self.snapshot_every)
        if not self.edits:
            total = record["processed_events"]
            last_submit = self.base["workload"]["inline"]["jobs"][-1]["submit_time"]
            editable = [s for s in snapshots if s.time < last_submit]
            for fraction in self.edit_fractions:
                nearest = min(
                    editable, key=lambda s: abs(s.processed_events - fraction * total)
                )
                self.edits.append(gen.edit_after(self.base, nearest.time))
        root = self.fresh_dir("snapshots")
        with self.spans.span("replay.save"):
            for index, snapshot in enumerate(snapshots):
                snapshot.save(root / f"{index:04d}.json")
        return root, record

    def run(self, state):
        from repro.replay import Snapshot, whatif

        root, base_record = state
        with self.spans.span("replay.load"):
            snapshots = [Snapshot.load(path) for path in sorted(root.glob("*.json"))]
        with self.spans.span("replay.whatif"):
            results = [
                whatif(self.base, edited, snapshots=snapshots) for edited in self.edits
            ]
        self.snapshots = snapshots
        return results, base_record

    def layers(self, tables: Tables, state, result) -> Dict[str, float]:
        """The ``replay.*`` metrics of one traced repetition."""
        from repro.replay import restore_simulation

        results, _ = result
        files = sorted(state[0].glob("*.json"))
        capture = tables.setup["replay.capture"]
        base_run_s = tables.setup["batch.run"]["total_s"]
        middle = self.snapshots[len(self.snapshots) // 2]
        start = perf_counter()
        restore_simulation(middle)
        restore_s = perf_counter() - start
        replayed = sum(r.events_replayed or 0 for r in results)
        total = sum(r.events_total or 0 for r in results)
        return {
            "replay.capture_ms": 1e3 * capture["total_s"] / capture["count"],
            "replay.capture_overhead_frac": capture["total_s"]
            / (base_run_s - capture["total_s"]),
            "replay.snapshots": len(files),
            "replay.snapshot_bytes": sum(f.stat().st_size for f in files) / len(files),
            "replay.save_ms": 1e3 * tables.setup["replay.save"]["total_s"],
            "replay.load_ms": 1e3 * tables.run["replay.load"]["total_s"],
            "replay.restore_ms": 1e3 * restore_s,
            "replay.whatif_s": tables.run["replay.whatif"]["total_s"],
            "replay.events_replayed": replayed,
            "replay.events_saved_frac": 1.0 - replayed / total if total else 0.0,
            "replay.warm_frac": sum(1 for r in results if r.warm) / len(results),
        }

    def cold_records(self) -> List[dict]:
        """Cold runs of the edited specs, once: the reference a replay must equal."""
        if self._cold is None:
            from repro import Simulation

            self._cold = []
            for edited in self.edits:
                sim = Simulation.from_spec(edited)
                record = sim.run().run_record()
                record["invocations"] = sim.batch.invocations
                self._cold.append(record)
        return self._cold

    def check(self, result):
        results, base_record = result
        for outcome, cold in zip(results, self.cold_records()):
            if not outcome.warm:
                raise CheckError(f"what-if fell back to a cold run: {outcome.reason}")
            if outcome.record != cold:
                raise CheckError("what-if record differs from a cold run of the edit")
            if outcome.record["summary"]["completed_jobs"] != self.num_jobs:
                raise CheckError("what-if left jobs unfinished")
        if base_record["summary"]["completed_jobs"] != self.num_jobs:
            raise CheckError("base run left jobs unfinished")
        counts = {
            "events_replayed": sum(r.events_replayed for r in results),
            "events_total": sum(r.events_total for r in results),
            "snapshot_events": [r.snapshot_events for r in results],
            "base_events": base_record["processed_events"],
        }
        return fingerprint([base_record] + [r.record for r in results]), counts

    def discard(self, state, result=None) -> None:
        shutil.rmtree(state[0], ignore_errors=True)


JOURNEYS = {
    journey.name: journey
    for journey in (RigidSched, MalleableIo, ColdCli, CampaignSweep, WhatIfEdit)
}

