#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: five user journeys, one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--traced] [--quick]
    python3 benchmarks/e2e/run.py --selftest-noise N

Each workload runs in a process of its own, single-threaded, as a closed
loop of repetitions: set-up, timed region, output check, calibration kernel.
Every metric is printed by name with its unit (``metric <name> <value>
<unit>``); the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` (the
default) reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer metrics from a traced run; ``--traced`` does one after the
other.  See ``README.md`` beside this file for the glossary and the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    CAL_NOMINAL_S,
    Spans,
    cal,
    format_self_time_table,
    iqr_frac,
    median,
    peak_rss_mb,
    perf_counter,
)

#: One busy thread per process, and the same hash seed in every process.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Repetitions of the closed loop: never fewer, however slow the host.
MIN_REPS = 12
MAX_REPS = 40
#: A set-up sample shorter than this is the mean of a batch of set-ups.
SETUP_SINGLE_S = 0.1
SETUP_BATCH_S = 0.2


def pinned_env() -> Dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    return env


def pin_environment() -> None:
    """Re-execute under the pinned environment unless it already holds."""
    env = pinned_env()
    if any(os.environ.get(key) != env[key] for key in (*PINNED_ENV, "PYTHONPATH")):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_manifest() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one repetition ---------------------------------------------------------------


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float = math.nan
    run_s: float = math.nan
    cal_s: float = math.nan
    ok: bool = False
    error: Optional[str] = None
    fingerprint: Optional[str] = None
    #: Counts read from the program that must repeat exactly.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Traced repetitions only: the ledger's counters and the journey's layers.
    totals: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def repetition(journey, batch: int, traced: bool = False) -> Rep:
    """Set-up (``batch`` times, the last one kept), timed region, check, clean-up."""
    from journeys import CheckError, Tables

    spans, ledger = journey.spans, journey.ledger
    rep = Rep()
    state = result = None
    first_span = len(spans.records)
    try:
        try:
            if traced:
                spans.enabled = True
                spans.rep += 1
                ledger.install()
            # Garbage of the benchmark's own making (discarded set-ups, the
            # last repetition's results) is collected outside the timed
            # intervals; the collector stays on, with its default thresholds.
            gc.collect()
            with spans.span("setup"):
                total = 0.0
                for index in range(batch):
                    if index:
                        # Only the last set-up of a batch is used; drop the
                        # others at once: they cost neither memory nor disk.
                        journey.discard(state)
                        state = None
                    state, seconds = journey.timed_setup()
                    total += seconds
            rep.setup_s = total / batch
            gc.collect()
            if traced:
                ledger.start_counting()
            with spans.span("run"):
                start = perf_counter()
                result = journey.run(state)
                rep.run_s = perf_counter() - start
        finally:
            # Checking the outputs may run the program again (cold reference
            # runs): that is no part of the trace.
            if traced:
                if ledger.counting:
                    ledger.stop_counting()
                    rep.totals = dict(ledger.totals)
                ledger.uninstall()
                spans.enabled = False
        rep.fingerprint, rep.counts = journey.check(result)
        rep.ok = True
        if traced:
            one = Spans()
            one.records = spans.records[first_span:]
            rebase(one.records, first_span)
            rep.layers = journey.layers(Tables(one), state, result)
    except CheckError as exc:
        rep.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - a crash of the program is a failed repetition
        rep.error = f"{type(exc).__name__}: {exc}"
    finally:
        if state is not None:
            journey.discard(state, result)
    return rep


def rebase(records: List[list], offset: int) -> None:
    """Make the parent links of a slice of span records relative to the slice."""
    for index, record in enumerate(records):
        records[index] = [*record[:3], record[3] - offset if record[3] >= 0 else -1, record[4]]


def setup_batch(journey) -> int:
    """How many back-to-back set-ups make one sample of at least ``SETUP_BATCH_S``."""
    if not journey.in_process:
        return 1
    state, seconds = journey.timed_setup()
    journey.discard(state)
    if seconds >= SETUP_SINGLE_S:
        return 1
    return min(500, max(2, math.ceil(SETUP_BATCH_S / max(seconds, 1e-4))))


def warm_up(journey) -> Optional[Rep]:
    """One discarded repetition for in-process journeys; its failure still counts."""
    if not journey.in_process:
        return None
    return repetition(journey, 1)


# -- the closed loop --------------------------------------------------------------


def closed_loop(journey, seconds: float, quick: bool) -> List[Rep]:
    """Repetitions until ``seconds`` are spent, the calibration kernel between them."""
    warm = warm_up(journey)
    batch = 1 if quick else setup_batch(journey)
    reps: List[Rep] = []
    if warm is not None and not warm.ok:
        reps.append(warm)
    started = perf_counter()
    cals = [cal()]
    while True:
        rep = repetition(journey, batch)
        cals.append(cal())
        reps.append(rep)
        done = len(reps)
        if quick:
            if done >= 2:
                break
            continue
        elapsed = perf_counter() - started
        if done >= MAX_REPS or (done >= MIN_REPS and elapsed + elapsed / done > seconds):
            break
    calibrate(reps[-(len(cals) - 1) :], cals)
    return reps


def calibrate(reps: List[Rep], cals: List[float]) -> None:
    """Give each repetition the host speed around it.

    ``cals[i]`` ran just before ``reps[i]`` and ``cals[i + 1]`` just after.  A
    repetition is scored against the median of the six kernel runs nearest to
    it: the host's slow drift is kept, a burst that hit one kernel run is not.
    """
    for index, rep in enumerate(reps):
        rep.cal_s = median(cals[max(0, index - 2) : index + 4])


def expected_fingerprint(name: str, seed: int, quick: bool) -> Optional[str]:
    path = HERE / "expected.json"
    if seed != 3 or not path.exists():
        return None
    return json.loads(path.read_text())["quick" if quick else "full"].get(name)


def judge(reps: List[Rep], expected: Optional[str]) -> Dict[str, Any]:
    """Mark repetitions whose output differs from the first good one or the expected."""
    reference = expected or next((r.fingerprint for r in reps if r.ok), None)
    for rep in reps:
        if rep.ok and rep.fingerprint != reference:
            rep.ok = False
            rep.error = f"fingerprint {rep.fingerprint[:12]} differs from {reference[:12]}"
    good = [r for r in reps if r.ok]
    unstable = {}
    if good:
        for key, value in good[0].counts.items():
            values = [r.counts.get(key) for r in good]
            if any(v != value for v in values):
                unstable[key] = values
    return {
        "attempted": len(reps),
        "failed": len(reps) - len(good),
        "unstable_counts": unstable,
        "errors": sorted({r.error for r in reps if r.error}),
    }


def end_to_end(journey, reps: List[Rep]) -> Dict[str, float]:
    good = [r for r in reps if r.ok and not math.isnan(r.cal_s)] or reps
    return {
        # Seconds of a host on which the calibration kernel takes CAL_NOMINAL_S.
        "setup_s": CAL_NOMINAL_S * median([r.setup_s / r.cal_s for r in good]),
        "run_cal": median([r.run_s / r.cal_s for r in good]),
        "peak_rss_mb": peak_rss_mb(children=not journey.in_process),
    }


# -- the traced run ---------------------------------------------------------------


def traced_run(journey, seconds: float, quick: bool, seed: int) -> Dict[str, Any]:
    """Untraced and traced repetitions in alternation, one profiled, then the probes."""
    import probes
    from journeys import JOURNEYS, Tables
    from ledger import Ledger

    started = perf_counter()
    warm = warm_up(journey)
    batch = 1 if quick else setup_batch(journey)
    plain: List[Rep] = []
    traced: List[Rep] = []
    both: List[Rep] = []
    cals = [cal()]
    # The probes and the profiled repetition need about half of the run.
    budget = seconds * 0.45
    while True:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            rep = repetition(journey, batch, traced=with_trace)
            cals.append(cal())
            both.append(rep)
            (traced if with_trace else plain).append(rep)
        pairs = len(plain)
        elapsed = perf_counter() - started
        if quick or pairs >= 6 or (pairs >= 2 and elapsed + elapsed / pairs > budget):
            break
    calibrate(both, cals)
    reps = ([warm] if warm is not None and not warm.ok else []) + both

    state, _ = journey.timed_setup()
    try:
        pycalls = journey.profiled_calls(state)
    finally:
        journey.discard(state)

    spans = journey.spans
    good = [r for r in traced if r.ok] or traced
    count = len(traced)
    tables = Tables(spans)
    totals = good[-1].totals
    empty = {"total_s": 0.0, "self_s": 0.0, "count": 0}
    run_row = tables.run.get("batch.run", empty)
    batch_run_s = run_row["total_s"] / count
    schedule_s = tables.run.get("scheduler.schedule", empty)["total_s"] / count
    solver_s = median([r.totals.get("solver_time", 0.0) for r in good])
    residual_s = run_row["self_s"] / count - solver_s
    plain_s = [r.run_s for r in plain]

    def total(key: str) -> float:
        return totals.get(key, 0)

    def per(amount: float, units: float) -> float:
        return amount / units if units else 0.0

    metrics: Dict[str, float] = {
        "expressions.evaluations": total("evaluations"),
        "expressions.compiles": total("compiles"),
        "expressions.memo_hit_rate": per(total("memo_hits"), total("evaluations")),
        "des.events": total("events"),
        "sharing.solver_s": solver_s,
        "sharing.solver_frac": solver_s / batch_run_s,
        "sharing.resolves": total("resolves"),
        "sharing.solved_activities": total("solved_activities"),
        "sharing.mean_scope": per(total("solved_activities"), total("resolves")),
        "sharing.max_scope": total("max_scope"),
        "sharing.slot_solves": total("slot_solves"),
        "sharing.fast_solves": total("fast_solves"),
        "sharing.scalar_solves": total("scalar_solves"),
        "sharing.vector_solves": total("vector_solves"),
        "scheduler.schedule_s": schedule_s,
        "scheduler.schedule_frac": schedule_s / batch_run_s,
        "scheduler.invocations": total("invocations"),
        "scheduler.us_per_invocation": per(1e6 * schedule_s, total("invocations")),
        "batch.from_spec_ms": 1e3 * tables.mean("batch.from_spec"),
        "batch.run_s": batch_run_s,
        "batch.completed_jobs": total("completed_jobs"),
        "batch.killed_jobs": total("killed_jobs"),
        "batch.reconfigurations": total("reconfigurations"),
        "kernel.residual_s": residual_s,
        "kernel.residual_frac": residual_s / batch_run_s,
        "kernel.us_per_event": per(1e6 * residual_s, total("events")),
        "host.cal_s": median(cals),
        "host.cal_iqr_frac": iqr_frac(cals),
        "host.run_s": median(plain_s),
        "host.run_iqr_frac": iqr_frac(plain_s),
        "host.setup_raw_s": median([r.setup_s for r in plain]),
        "host.reps": len(plain),
        "host.pycalls_per_event": per(pycalls, total("events")),
        "host.fail_frac": sum(1 for r in reps if not r.ok) / len(reps),
        "trace.overhead_frac": median([r.run_s for r in traced]) / median(plain_s) - 1.0,
        "trace.spans": len(spans.records) / count,
    }
    metrics.update(probes.all_probes(seed, quick))

    # The replay and campaign layers: from this journey when it is theirs,
    # otherwise from one traced repetition of the small form of that journey.
    for owner in ("whatif_edit", "campaign_sweep"):
        if journey.name == owner:
            metrics.update(good[-1].layers)
            continue
        side_spans = Spans()
        side = JOURNEYS[owner](seed, True, journey.workdir, side_spans, Ledger(side_spans))
        rep = repetition(side, 1, traced=True)
        if not rep.ok:
            raise RuntimeError(f"layer probe {owner} failed: {rep.error}")
        metrics.update(rep.layers)

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{journey.name}.json"
    trace_file.write_text(json.dumps({"workload": journey.name, "spans": spans.to_json()}))
    print(f"# self-time table of {journey.name}, per traced repetition ({count} traced)")
    print(format_self_time_table(tables.all, count))
    named = solver_s + schedule_s + residual_s
    print(
        f"# batch.run {batch_run_s:.4f} s = sharing.solver_s {solver_s:.4f} + "
        f"scheduler.schedule_s {schedule_s:.4f} + kernel.residual_s {residual_s:.4f} "
        f"({100 * named / batch_run_s:.1f} % attributed)"
    )
    print(f"# trace written to {trace_file.relative_to(ROOT)}")
    return {"reps": reps, "metrics": metrics}


# -- one workload -----------------------------------------------------------------


def print_metrics(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"metric {name} {shown} {units[name]}")


def run_workload(args, manifest) -> int:
    """Measure one workload in this process; print metrics and the result line."""
    pin_environment()
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from journeys import JOURNEYS
    from ledger import Ledger

    sections = {
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    want_e2e = args.traced or args.trace == 0
    want_layers = args.traced or args.trace == 1

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = Spans()
    expected = None
    if not args.write_expected:
        expected = expected_fingerprint(args.workload, args.seed, args.quick)
    metrics: Dict[str, float] = {}
    verdicts = []
    try:
        journey = JOURNEYS[args.workload](
            args.seed, args.quick, workdir, spans, Ledger(spans)
        )
        print(f"# workload {args.workload} seed {args.seed}" + (" (quick)" if args.quick else ""))
        if want_e2e:
            reps = closed_loop(journey, args.seconds, args.quick)
            verdicts.append(judge(reps, expected))
            values = end_to_end(journey, reps)
            good = [r for r in reps if r.ok] or reps
            print(
                f"# {len(reps)} repetitions, raw run {median([r.run_s for r in good]):.4f} s "
                f"(iqr {100 * iqr_frac([r.run_s for r in good]):.1f} %), "
                f"calibrated iqr {100 * iqr_frac([r.run_s / r.cal_s for r in good]):.1f} %, "
                f"cal {median([r.cal_s for r in good]):.4f} s"
            )
            print_metrics(values, sections["end_to_end"])
            metrics.update(values)
        if want_layers:
            outcome = traced_run(journey, args.seconds, args.quick, args.seed)
            verdicts.append(judge(outcome["reps"], expected))
            missing = set(sections["per_layer"]) - set(outcome["metrics"])
            extra = set(outcome["metrics"]) - set(sections["per_layer"])
            if missing or extra:
                raise RuntimeError(
                    f"per-layer metrics out of step with BENCHMARK.json: "
                    f"missing {sorted(missing)}, unlisted {sorted(extra)}"
                )
            ordered = {name: outcome["metrics"][name] for name in sections["per_layer"]}
            print_metrics(ordered, sections["per_layer"])
            metrics.update(ordered)
        if args.write_expected:
            fingerprints = {r.fingerprint for r in reps if r.ok}
            write_expected(args.workload, args.quick, fingerprints)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    for verdict in verdicts:
        for error in verdict["errors"]:
            print(f"# FAILED: {error}")
        for key, values in verdict["unstable_counts"].items():
            print(f"# count {key} did not repeat: {sorted(set(map(str, values)))}")
    unstable = any(v["unstable_counts"] for v in verdicts)
    correct = failed == 0 and not unstable
    units = {**sections["end_to_end"], **sections["per_layer"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def write_expected(name: str, quick: bool, fingerprints: set) -> None:
    if len(fingerprints) != 1:
        raise RuntimeError(f"{name}: repetitions disagree, nothing written")
    path = HERE / "expected.json"
    doc = json.loads(path.read_text()) if path.exists() else {"full": {}, "quick": {}}
    doc["quick" if quick else "full"][name] = fingerprints.pop()
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- all workloads, and the noise self-test ---------------------------------------


def spawn(workload: str, seed: int, extra: List[str]) -> Dict[str, Any]:
    """Run one workload in a process of its own; relay its output, return its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *extra],
        env=pinned_env(), capture_output=True, text=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload} (seed {seed}) printed no result, exit {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result["exit"] = proc.returncode
    result["output"] = "\n".join(lines[:-1])
    return result


def run_all(args, manifest) -> int:
    extra = ["--seconds", str(args.seconds)]
    extra += ["--traced"] if args.traced else ["--trace", str(args.trace)]
    extra += ["--quick"] if args.quick else []
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in manifest["workloads"]):
        result = spawn(workload, args.seed, extra)
        print(result["output"], flush=True)
        status = status or result["exit"]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][workload] = result["metrics"]
    print(json.dumps(combined), flush=True)
    return status


def selftest_noise(args, manifest) -> int:
    """Two alternating sets of runs of the same tree, compared metric by metric."""
    runs = max(5, args.selftest_noise)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    extra = ["--seconds", str(args.seconds), "--trace", "0"]
    status = 0
    print(f"# noise self-test: 2 sets x {runs} runs, seeds {args.seed}..{args.seed + runs - 1}")
    print(
        f"{'workload':15s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
        f"{'B vs A':>8s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}  verdict"
    )
    for workload in (w["name"] for w in manifest["workloads"]):
        sets: Dict[str, Dict[str, List[float]]] = {"A": {}, "B": {}}
        for index in range(runs):
            for label in ("A", "B") if index % 2 == 0 else ("B", "A"):
                result = spawn(workload, args.seed + index, extra)
                if not result["correct"]:
                    print(f"# {workload} seed {args.seed + index}: incorrect\n{result['output']}")
                    status = 1
                for name, cell in result["metrics"].items():
                    sets[label].setdefault(name, []).append(cell["value"])
        for name, bound in bounds.items():
            a, b = sets["A"][name], sets["B"][name]
            shift = median(b) / median(a) - 1.0
            spread = max(iqr_frac(a), iqr_frac(b))
            # setup_s is held to its bound on the shift only, as the driver does.
            ok = abs(shift) <= bound and (name == "setup_s" or spread <= bound)
            status = status if ok else 1
            print(
                f"{workload:15s} {name:12s} {median(a):11.5g} {median(b):11.5g} "
                f"{100 * shift:+7.2f}% {100 * iqr_frac(a):6.2f}% {100 * iqr_frac(b):6.2f}% "
                f"{100 * bound:5.1f}%  {'PASS' if ok else 'FAIL'}",
                flush=True,
            )
    status = status or compare_counts(args, manifest)
    return status


def compare_counts(args, manifest) -> int:
    """Two traced runs per workload must agree on every count the program makes."""
    # host.* and trace.* describe this run of the benchmark, not the program.
    counts = [
        m["name"]
        for m in manifest["per_layer"]
        if m["unit"] == "count" and not m["name"].startswith(("host.", "trace."))
    ]
    extra = ["--seconds", str(args.seconds), "--trace", "1"]
    status = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        first, second = (spawn(workload, args.seed, extra)["metrics"] for _ in range(2))
        differing = [n for n in counts if first[n]["value"] != second[n]["value"]]
        for name in differing:
            print(f"# {workload}: {name} {first[name]['value']} != {second[name]['value']}")
        verdict = "FAIL" if differing else "PASS"
        print(f"{workload:15s} {len(counts)} count metrics, two traced runs  {verdict}", flush=True)
        status = status or (1 if differing else 0)
    return status


def main() -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true", help="untraced run, then traced run")
    parser.add_argument("--quick", action="store_true", help="two repetitions, shrunk inputs")
    parser.add_argument("--selftest-noise", type=int, metavar="N", default=0)
    parser.add_argument("--write-expected", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.selftest_noise:
        return selftest_noise(args, manifest)
    if args.workload is None:
        return run_all(args, manifest)
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
