"""The benchmark's stand-in for ``elastisim run``, one fresh process per call.

It takes the same steps as ``repro.cli``'s ``run`` command — ``import
repro.cli``, ``load_platform``, ``load_workload``, ``Simulation(...)``,
``run``, summary and result files — but from the benchmark's side, so it can
say when each step ended, which the real command cannot.

``--stop constructed`` prints the wall-clock time at which the simulation
object existed and leaves at once: the parent's spawn time subtracted from it
is ``setup_s`` of the ``cold_cli`` workload.  Otherwise the whole journey
runs with spans (and, with ``--profile``, under cProfile) and the spans and
counters are written to ``--report`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--platform", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--algorithm", default="easy")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--stop", choices=["constructed"], default=None)
    parser.add_argument("--report", default=None)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()

    if args.stop == "constructed":
        import repro.cli  # noqa: F401 - the import is the work being timed
        from repro import Simulation, load_platform, load_workload

        sim = Simulation(
            load_platform(args.platform),
            load_workload(args.workload),
            algorithm=args.algorithm,
        )
        print(repr(time.time()), flush=True)
        # Leave without tearing the platform down: what comes after
        # construction belongs to the timed region, not to set-up.
        os._exit(0 if sim is not None else 1)

    from harness import Spans
    from ledger import Ledger

    spans = Spans()
    spans.enabled = True
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro import Simulation, load_platform, load_workload
        from repro.monitoring import render_gantt
    ledger = Ledger(spans)
    ledger.install()
    ledger.start_counting()
    try:
        with spans.span("platform.build"):
            platform = load_platform(args.platform)
        with spans.span("workload.load"):
            jobs = load_workload(args.workload)
        with spans.span("batch.from_spec"):
            sim = Simulation(platform, jobs, algorithm=args.algorithm)
        monitor = sim.run()
        with spans.span("monitoring.record"):
            summary = monitor.summary().as_dict()
            if args.output_dir is not None:
                out = Path(args.output_dir)
                out.mkdir(parents=True, exist_ok=True)
                monitor.write_job_csv(out / "jobs.csv")
                monitor.write_summary_json(out / "summary.json")
                (out / "utilization.json").write_text(
                    json.dumps(monitor.utilization_timeline())
                )
                (out / "gantt.txt").write_text(render_gantt(monitor))
    finally:
        ledger.stop_counting()
        ledger.uninstall()
    calls = None
    if profiler is not None:
        profiler.disable()
        calls = sum(entry.callcount for entry in profiler.getstats())
    report = {
        "spans": spans.records,
        "ledger": ledger.totals,
        "summary": summary,
        "pycalls": calls,
    }
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
