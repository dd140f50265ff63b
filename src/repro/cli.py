"""Command-line interface.

Subcommands::

    elastisim run       --platform p.json --workload w.json --algorithm easy
    elastisim generate  --num-jobs 100 --seed 0 --output w.json [mix options]
    elastisim validate  --platform p.json [--workload w.json]
    elastisim campaign run     --spec campaign.json [--workers N]
                               [--executor NAME] [--scenario-timeout S] [...]
    elastisim campaign worker  --queue-dir DIR [--worker-id ID] [...]
    elastisim campaign aggregate PATHS... [--output agg.json]
    elastisim campaign report PATHS... [--output-dir DIR] [--group-by K,K]
    elastisim campaign compare current.json baseline.json [...]
    elastisim trace record  --platform p.json --workload w.json --output t.json
    elastisim trace convert t.jsonl t.json
    elastisim trace check   t.jsonl [--nodes N]
    elastisim profile   [--jobs N] [--nodes N] [--cprofile] [--output p.json]
    elastisim whatif    --base s.json [--edited s2.json [--checkpoints DIR] | --resume-at F]
    elastisim fuzz run     [--seed N] [--count N] [--algorithms a,b] [...]
    elastisim fuzz shrink  reproducer.json [--output-dir DIR] [--bisect]
    elastisim fuzz replay  reproducer.json [...]
    elastisim algorithms

``run`` prints the summary table and optionally writes per-job CSV /
summary JSON / utilization series to ``--output-dir``.  ``campaign run``
executes a whole scenario grid in parallel with result caching (see
``docs/CAMPAIGNS.md``).

Errors are reported on stderr — never as tracebacks — with distinct exit
codes so scripts and CI can tell failure classes apart:

====  ========================================================
code  meaning
====  ========================================================
0     success
1     regression or invariant violation found
2     usage error (bad flags, nothing to do)
3     something given is wrong: an :class:`~repro.InputError` (every
      file format's error class is one; the message starts with the
      file or the dotted path of the field) or an ``OSError``
4     unknown algorithm or scheduler misconfiguration
5     simulation or campaign runtime failure
70    a bug: any other exception.  No input file reaches it.
====  ========================================================
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro._input import InputError, read_json
from repro.batch import BatchError, Simulation
from repro.monitoring import render_gantt
from repro.platform import load_platform
from repro.scheduler import SchedulerError
from repro.workload import load_workload

# Import rule (docs/INTERNALS.md): nothing heavier than ``import repro`` up
# here; every handler imports its own subsystem when it runs.

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ALGORITHM = 4
EXIT_RUNTIME = 5
EXIT_INTERNAL = 70

#: ``--executor`` values: the registry, ``repro.campaign.executor_names()``, is
#: too heavy to import for a parser; ``tests/test_cli.py`` keeps the two equal.
_EXECUTORS = ("in-process", "process-pool", "queue-worker")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastisim",
        description="ElastiSim reproduction: batch-system simulator for "
        "malleable workloads",
    )
    parser.add_argument("--version", action="version", version=f"elastisim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation")
    run.add_argument("--platform", required=True, help="platform JSON file")
    run.add_argument("--workload", required=True, help="workload JSON file")
    run.add_argument(
        "--algorithm",
        default="easy",
        help="fcfs | easy | conservative | moldable | malleable",
    )
    run.add_argument(
        "--interval",
        type=float,
        default=None,
        help="periodic scheduler invocation interval (seconds)",
    )
    run.add_argument("--until", type=float, default=None, help="stop time")
    run.add_argument(
        "--output-dir", default=None, help="write jobs.csv / summary.json here"
    )
    run.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help="inject Poisson node failures with this per-node MTBF (seconds)",
    )
    run.add_argument(
        "--mean-repair",
        type=float,
        default=300.0,
        help="mean node repair time when --mtbf is set",
    )
    run.add_argument(
        "--failure-seed", type=int, default=0, help="seed for --mtbf faults"
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a flight-recorder trace (*.json = Chrome trace-event "
        "format for Perfetto, anything else JSONL)",
    )
    run.add_argument(
        "--check-invariants",
        action="store_true",
        help="audit the run with the tracing invariant checker",
    )

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("--output", required=True, help="output workload JSON")
    gen.add_argument("--num-jobs", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mean-interarrival", type=float, default=30.0)
    gen.add_argument("--min-request", type=int, default=1)
    gen.add_argument("--max-request", type=int, default=32)
    gen.add_argument("--malleable-fraction", type=float, default=0.0)
    gen.add_argument("--moldable-fraction", type=float, default=0.0)
    gen.add_argument("--evolving-fraction", type=float, default=0.0)
    gen.add_argument("--data-per-node", type=float, default=0.0)
    gen.add_argument("--node-flops", type=float, default=1e12)
    gen.add_argument("--mean-runtime", type=float, default=300.0)
    gen.add_argument("--num-users", type=int, default=1)
    gen.add_argument(
        "--report",
        type=int,
        metavar="NUM_NODES",
        default=None,
        help="print a workload profile (offered load for this node count)",
    )

    val = sub.add_parser("validate", help="validate input files")
    val.add_argument("--platform", default=None)
    val.add_argument("--workload", default=None)

    campaign = sub.add_parser(
        "campaign", help="run scenario-grid campaigns and check regressions"
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser("run", help="execute a campaign file")
    crun.add_argument("--spec", required=True, help="campaign JSON/TOML file")
    crun.add_argument(
        "--name", default=None, help="campaign name (default: spec file stem)"
    )
    crun.add_argument(
        "--output-dir",
        default=None,
        help="report directory (default campaign-results/<name>)",
    )
    crun.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores; 1 = in-process)",
    )
    crun.add_argument(
        "--cache-dir",
        default=None,
        help="result cache root (default $ELASTISIM_CACHE_DIR or ~/.cache)",
    )
    crun.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    crun.add_argument(
        "--force", action="store_true", help="recompute everything, refresh the cache"
    )
    crun.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress lines"
    )
    crun.add_argument(
        "--trace-dir",
        default=None,
        help="write one <scenario>.trace.jsonl per scenario here "
        "(disables cache reads)",
    )
    crun.add_argument(
        "--check-invariants",
        action="store_true",
        help="audit every scenario with the invariant checker; violations "
        "are reported as status=invariant_violation",
    )
    crun.add_argument(
        "--executor",
        default=None,
        choices=_EXECUTORS,
        help="execution backend (default: spec's 'executor' key, else "
        "process-pool when parallel)",
    )
    crun.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-scenario deadline; overruns are recorded as failed with "
        "error_kind=timeout (default: spec's 'scenario_timeout' key)",
    )
    crun.add_argument(
        "--store-dir",
        default=None,
        help="shared result tree layered over the local cache "
        "(default $ELASTISIM_STORE_DIR; unset = local cache only)",
    )
    crun.add_argument(
        "--queue-dir",
        default=None,
        help="queue directory for --executor queue-worker "
        "(default: a fresh temporary directory)",
    )
    crun.add_argument(
        "--queue-workers",
        type=int,
        default=None,
        metavar="N",
        help="local worker processes spawned for --executor queue-worker "
        "(0 = rely on externally started workers; default --workers)",
    )
    crun.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queue claim lease before a silent worker is presumed dead",
    )
    crun.add_argument(
        "--fingerprints",
        default=None,
        metavar="PATH",
        help="write {scenario name: result fingerprint} JSON here "
        "(byte-identical across executors; CI diffs these)",
    )
    crun.add_argument(
        "--warm-start",
        action="store_true",
        help="in-process mode where grid scenarios sharing a "
        "workload prefix reuse one snapshotted base run and replay only "
        "their suffix (results stay byte-identical; see docs/REPLAY.md)",
    )

    cworker = csub.add_parser(
        "worker", help="serve scenarios from a shared campaign queue"
    )
    cworker.add_argument(
        "--queue-dir", required=True, help="queue directory to attach to"
    )
    cworker.add_argument(
        "--worker-id", default=None, help="stable worker name (default: generated)"
    )
    cworker.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="claim lease override (default: the queue manifest's)",
    )
    cworker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle poll interval (default 0.2)",
    )
    cworker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after executing this many scenarios",
    )
    cworker.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="exit when nothing is claimable instead of waiting for close",
    )
    cworker.add_argument(
        "--wait-for-queue",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wait this long for the queue manifest to appear (default 60)",
    )
    cworker.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress lines"
    )

    caggregate = csub.add_parser(
        "aggregate",
        help="fold JSONL result increments into streaming statistics",
    )
    caggregate.add_argument(
        "paths",
        nargs="+",
        help="JSONL shards, directories of shards, or queue directories",
    )
    caggregate.add_argument(
        "--output", default=None, metavar="PATH", help="write the aggregate JSON here"
    )
    caggregate.add_argument(
        "--compression",
        type=int,
        default=None,
        metavar="DELTA",
        help="quantile sketch resolution (default 100)",
    )

    creport = csub.add_parser(
        "report",
        help="fold scenario records into grouped study tables (markdown + JSON)",
    )
    creport.add_argument(
        "paths",
        nargs="+",
        help="scenarios.jsonl files, campaign result directories, or shards",
    )
    creport.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="write report.json + report.md here (default: print markdown only)",
    )
    creport.add_argument(
        "--group-by",
        default=None,
        metavar="KEYS",
        help="comma-separated params keys to group rows by "
        "(default: every grid coordinate)",
    )
    creport.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="summary metrics to tabulate (repeatable; default: study metrics)",
    )
    creport.add_argument(
        "--title", default="Campaign report", help="markdown report title"
    )

    ccompare = csub.add_parser(
        "compare", help="diff a campaign/bench report against a baseline"
    )
    # Delegated wholesale to repro.campaign.compare's own parser.
    ccompare.add_argument("compare_args", nargs=argparse.REMAINDER)

    trace = sub.add_parser(
        "trace", help="record, convert, and check flight-recorder traces"
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    trecord = tsub.add_parser("record", help="run a simulation and write a trace")
    trecord.add_argument("--platform", required=True, help="platform JSON file")
    trecord.add_argument("--workload", required=True, help="workload JSON file")
    trecord.add_argument(
        "--algorithm",
        default="easy",
        help="fcfs | easy | conservative | moldable | malleable",
    )
    trecord.add_argument(
        "--output",
        required=True,
        help="trace path (*.json = Chrome trace-event format, else JSONL)",
    )
    trecord.add_argument(
        "--check",
        action="store_true",
        help="also run the invariant checker on the trace stream",
    )

    tconvert = tsub.add_parser(
        "convert", help="convert a JSONL trace to Chrome trace-event format"
    )
    tconvert.add_argument("input", help="JSONL trace file")
    tconvert.add_argument("output", help="Chrome trace JSON to write")

    tcheck = tsub.add_parser(
        "check", help="run the invariant checker over a recorded JSONL trace"
    )
    tcheck.add_argument("input", help="JSONL trace file")
    tcheck.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="machine size for allocation-bound checks (default: unchecked)",
    )

    profile = sub.add_parser(
        "profile", help="profile the engine's hot paths on a reference scenario"
    )
    profile.add_argument("--jobs", type=int, default=200, help="workload size")
    profile.add_argument("--nodes", type=int, default=128, help="machine size")
    profile.add_argument(
        "--algorithm",
        default="easy",
        help="fcfs | easy | conservative | moldable | malleable",
    )
    profile.add_argument("--seed", type=int, default=3, help="workload seed")
    profile.add_argument(
        "--output", default=None, metavar="PATH", help="write the profile JSON here"
    )
    profile.add_argument(
        "--cprofile",
        action="store_true",
        help="also collect a cProfile top-functions table",
    )
    profile.add_argument(
        "--tracemalloc",
        action="store_true",
        help="trace allocations (slows the run; wall numbers not comparable)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=25,
        help="functions to keep in the cProfile table",
    )

    whatif = sub.add_parser(
        "whatif",
        help="incremental what-if replay: edit a scenario, replay only "
        "the divergent suffix from a snapshot (see docs/REPLAY.md)",
    )
    whatif.add_argument("--base", required=True, help="base scenario JSON file")
    whatif.add_argument(
        "--edited",
        default=None,
        help="edited scenario JSON; diffed against the base to find the "
        "divergence and warm-start from the latest safe checkpoint",
    )
    whatif.add_argument(
        "--snapshot-every",
        type=int,
        default=2000,
        metavar="N",
        help="checkpoint cadence of the base run in processed events "
        "(default 2000)",
    )
    whatif.add_argument(
        "--checkpoints",
        default=None,
        metavar="DIR",
        help="with --edited: keep the base run's checkpoints in DIR — "
        "replay from the set found there when it was taken from --base "
        "by this simulator version, else run the base once and save it",
    )
    whatif.add_argument(
        "--resume-at",
        type=float,
        default=None,
        metavar="FRACTION",
        help="self-test mode: snapshot the base run, resume from the "
        "checkpoint nearest this fraction of processed events, and write "
        "cold_record.json / resumed_record.json for byte comparison",
    )
    whatif.add_argument(
        "--verify",
        action="store_true",
        help="with --edited: also cold-run the edited scenario and fail "
        "unless the warm record is byte-identical",
    )
    whatif.add_argument(
        "--output-dir",
        default=".",
        help="directory for the emitted record files (default: cwd)",
    )

    fuzz = sub.add_parser(
        "fuzz", help="scenario fuzzing with differential/metamorphic oracles"
    )
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    frun = fsub.add_parser("run", help="fuzz random scenarios through the oracles")
    frun.add_argument("--seed", type=int, default=0, help="base seed of the sweep")
    frun.add_argument("--count", type=int, default=50, help="scenarios per algorithm")
    frun.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated schedulers to pin (default: draw per scenario, "
        "including the adversarial random one)",
    )
    frun.add_argument(
        "--oracles",
        default=None,
        help="comma-separated oracle subset (default: all)",
    )
    frun.add_argument(
        "--max-nodes", type=int, default=None, help="platform size budget"
    )
    frun.add_argument(
        "--max-jobs", type=int, default=None, help="workload size budget"
    )
    frun.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop the sweep after this many failing cases (default 5)",
    )
    frun.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without shrinking them",
    )
    frun.add_argument(
        "--output-dir",
        default=None,
        help="write reproducer artifacts for failing cases here",
    )
    frun.add_argument(
        "--report", default=None, help="write the JSON fuzz report here"
    )

    fshrink = fsub.add_parser(
        "shrink", help="minimize a failing scenario or reproducer record"
    )
    fshrink.add_argument("input", help="scenario or reproducer JSON file")
    fshrink.add_argument(
        "--output-dir",
        default=".",
        help="directory for the shrunk reproducer artifacts (default: cwd)",
    )
    fshrink.add_argument(
        "--max-evals",
        type=int,
        default=400,
        help="predicate evaluation budget for the shrinker",
    )
    fshrink.add_argument(
        "--bisect",
        action="store_true",
        help="for crash failures: checkpoint-bisect the run to its "
        "shortest failing suffix and bulk-drop already-finished jobs "
        "before the greedy walk",
    )

    freplay = fsub.add_parser(
        "replay", help="re-check scenario/reproducer JSON files"
    )
    freplay.add_argument("inputs", nargs="+", help="scenario or reproducer files")
    freplay.add_argument(
        "--oracles",
        default=None,
        help="comma-separated oracle subset (default: the record's own, "
        "or all for raw scenarios)",
    )

    sub.add_parser("algorithms", help="list built-in scheduling algorithms")

    return parser


def _writable_dir(path: str | os.PathLike[str]) -> Path:
    """Create ``path`` if need be and check that files can be written there.

    Called before any simulating: a bad output path must cost milliseconds,
    not a finished run whose printed summary was never saved.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK | os.X_OK):
        raise PermissionError(f"output directory is not writable: {out}")
    return out


def _simulation(args: argparse.Namespace, sim: dict) -> Simulation:
    """The scenario ``run`` / ``trace record`` flags describe, built the one way."""
    return Simulation.from_spec(
        {
            "platform": read_json(args.platform, InputError),
            "workload": {"file": args.workload},
            "algorithm": args.algorithm,
            "sim": sim,
        }
    )


def _cmd_run(args: argparse.Namespace) -> int:
    out = _writable_dir(args.output_dir) if args.output_dir is not None else None
    if args.trace is not None:
        _writable_dir(Path(args.trace).parent)
    options = {"invocation_interval": args.interval, "until": args.until}
    if args.mtbf is not None:
        options["failures"] = {
            "mtbf": args.mtbf, "mean_repair": args.mean_repair, "seed": args.failure_seed
        }
    sim = _simulation(args, options)
    platform, jobs = sim.batch.platform, sim.batch.jobs
    if args.mtbf is not None:
        print(f"injecting {len(sim.batch.failures)} node failures (MTBF {args.mtbf:g} s)")
    monitor = sim.run(
        until=args.until, trace=args.trace, check_invariants=args.check_invariants
    )
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    summary = monitor.summary()

    print(f"platform   : {platform.name} ({platform.num_nodes} nodes)")
    print(f"jobs       : {len(jobs)}")
    print(f"algorithm  : {args.algorithm}")
    print("-" * 46)
    for key, value in summary.as_dict().items():
        if isinstance(value, float):
            print(f"{key:24s} {value:16.3f}")
        else:
            print(f"{key:24s} {value:16d}")
    if monitor.power is not None:
        energy = monitor.power.energy_record()
        print(f"{'total_energy_joules':24s} {float(energy['total_joules']):16.3f}")
        print(f"{'max_power_watts':24s} {float(energy['max_power_watts']):16.3f}")
        if energy["corridor_watts"] is not None:
            print(f"{'corridor_watts':24s} {float(energy['corridor_watts']):16.3f}")

    if out is not None:
        monitor.write_job_csv(out / "jobs.csv")
        monitor.write_summary_json(out / "summary.json")
        (out / "utilization.json").write_text(
            json.dumps(monitor.utilization_timeline())
        )
        (out / "gantt.txt").write_text(render_gantt(monitor))
        print(f"results written to {out}/")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import WorkloadSpec, generate_workload, workload_to_dict

    spec = WorkloadSpec(
        num_jobs=args.num_jobs,
        mean_interarrival=args.mean_interarrival,
        min_request=args.min_request,
        max_request=args.max_request,
        malleable_fraction=args.malleable_fraction,
        moldable_fraction=args.moldable_fraction,
        evolving_fraction=args.evolving_fraction,
        data_per_node=args.data_per_node,
        node_flops=args.node_flops,
        mean_runtime=args.mean_runtime,
        num_users=args.num_users,
    )
    jobs = generate_workload(spec, seed=args.seed)
    Path(args.output).write_text(json.dumps(workload_to_dict(jobs), indent=2))
    print(f"wrote {len(jobs)} jobs to {args.output}")
    if args.report is not None:
        from repro.workload import format_profile, profile_workload

        profile = profile_workload(jobs, node_flops=args.node_flops)
        print(format_profile(profile, args.report, args.node_flops))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.platform is None and args.workload is None:
        print("nothing to validate: pass --platform and/or --workload",
              file=sys.stderr)
        return EXIT_USAGE
    if args.platform is not None:
        platform = load_platform(args.platform)
        print(f"platform OK: {platform.name} ({platform.num_nodes} nodes)")
    if args.workload is not None:
        jobs = load_workload(args.workload)
        print(f"workload OK: {len(jobs)} jobs")
    return EXIT_OK


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import repro.campaign as campaign

    scenarios = campaign.load_campaign(args.spec)
    settings = campaign.campaign_run_settings(campaign.load_campaign_spec(args.spec))
    name = args.name or Path(args.spec).stem
    output_dir = _writable_dir(args.output_dir or Path("campaign-results") / name)
    if args.fingerprints is not None:
        _writable_dir(Path(args.fingerprints).parent)
    # Without a shared root this is the plain local cache.
    store_dir = args.store_dir or os.environ.get("ELASTISIM_STORE_DIR") or None
    cache = (
        None if args.no_cache else campaign.ResultCache(args.cache_dir, shared_root=store_dir)
    )
    executor = args.executor or settings.get("executor")
    executor_options: dict = {}
    if executor == "queue-worker":
        queue_dir = args.queue_dir
        if queue_dir is None:
            import tempfile

            queue_dir = tempfile.mkdtemp(prefix=f"elastisim-queue-{name}-")
        executor_options["queue_dir"] = queue_dir
        if args.queue_workers is not None:
            executor_options["workers"] = max(0, args.queue_workers)
        if args.lease is not None:
            executor_options["lease_s"] = args.lease
    runner = campaign.CampaignRunner(
        scenarios,
        name=name,
        workers=args.workers,
        cache=cache,
        force=args.force,
        trace_dir=args.trace_dir,
        check_invariants=args.check_invariants,
        executor=executor,
        executor_options=executor_options,
        scenario_timeout=(
            args.scenario_timeout
            if args.scenario_timeout is not None
            else settings.get("scenario_timeout")
        ),
        warm_start=args.warm_start,
    )

    def progress(record: dict) -> None:
        status = record.get("status", "?")
        cached = " (cached)" if record.get("cached") else ""
        line = f"[{status:>6s}] {record['name']}{cached}"
        if status == "failed":
            line += f" - {record.get('error', 'unknown error')}"
        print(line)

    print(f"campaign {name}: {len(scenarios)} scenarios, {runner.workers} workers")
    report = runner.run(progress=None if args.quiet else progress)

    files = report.write(output_dir)
    if args.fingerprints is not None:
        fingerprints = {
            record["name"]: campaign.result_fingerprint(record)
            for record in report.records
        }
        path = Path(args.fingerprints)
        path.write_text(json.dumps(fingerprints, sort_keys=True, indent=2) + "\n")
        print(f"fingerprints: {path}")
    print("-" * 46)
    print(
        f"{len(report.ok)}/{len(report.records)} scenarios ok, "
        f"{report.cache_hits} cache hits, {report.executed} executed "
        f"in {report.wall_s:.2f}s on {report.workers} workers "
        f"({report.executor})"
    )
    print(f"report: {files['aggregate']}")
    if report.failed:
        for record in report.failed:
            print(
                f"{record.get('status', 'failed')}: {record['name']}: "
                f"{record.get('error', '?')}",
                file=sys.stderr,
            )
        if any(r.get("status") == "invariant_violation" for r in report.failed):
            return EXIT_REGRESSION
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaign import worker_loop

    executed = worker_loop(
        args.queue_dir,
        worker_id=args.worker_id,
        lease_s=args.lease,
        poll_s=args.poll,
        max_tasks=args.max_tasks,
        exit_when_idle=args.exit_when_idle,
        wait_for_queue_s=args.wait_for_queue,
        log=None if args.quiet else print,
    )
    print(f"worker done: {executed} scenario(s) executed")
    return EXIT_OK


def _aggregate_shards(paths: List[str]) -> List[Path]:
    """Expand aggregate inputs: files, shard directories, queue directories."""
    shards: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            increments = path / "increments"
            root = increments if increments.is_dir() else path
            shards.extend(sorted(root.glob("*.jsonl")))
        else:
            shards.append(path)
    return shards


def _cmd_campaign_aggregate(args: argparse.Namespace) -> int:
    from repro.campaign import StreamingAggregator

    shards = _aggregate_shards(args.paths)
    if not shards:
        print("nothing to aggregate: no JSONL shards found", file=sys.stderr)
        return EXIT_USAGE
    if args.compression is not None and args.compression < 1:
        print("--compression must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    aggregator = (
        StreamingAggregator(compression=args.compression)
        if args.compression is not None
        else StreamingAggregator()
    )
    folded = aggregator.fold_paths(shards)
    payload = aggregator.as_dict()
    print(
        f"aggregated {folded} record(s) from {len(shards)} shard(s): "
        + ", ".join(f"{k}={v}" for k, v in payload["status"].items())
    )
    for metric, stats in payload["metrics"].items():
        if not stats["count"]:
            continue
        print(
            f"  {metric:24s} n={stats['count']:<6d} mean={stats['mean']:.4g} "
            f"p50={stats['p50']:.4g} p99={stats['p99']:.4g}"
        )
    if args.output is not None:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"aggregate written to {out}")
    return EXIT_OK


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import STUDY_METRICS, CampaignStudyReport

    shards = _aggregate_shards(args.paths)
    if not shards:
        print("nothing to report: no JSONL records found", file=sys.stderr)
        return EXIT_USAGE
    group_by = (
        [key.strip() for key in args.group_by.split(",") if key.strip()]
        if args.group_by is not None
        else None
    )
    report = CampaignStudyReport(
        group_by=group_by,
        metrics=tuple(args.metric) if args.metric else STUDY_METRICS,
    )
    folded = report.fold_paths(shards)
    if not folded:
        print("nothing to report: shards held no records", file=sys.stderr)
        return EXIT_USAGE
    print(report.to_markdown(title=args.title))
    if args.output_dir is not None:
        paths = report.write(args.output_dir, title=args.title)
        print(f"report written to {paths['json']} and {paths['markdown']}")
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "compare":
        from repro.campaign import compare

        return compare.main(args.compare_args)
    if args.campaign_command == "worker":
        return _cmd_campaign_worker(args)
    if args.campaign_command == "aggregate":
        return _cmd_campaign_aggregate(args)
    if args.campaign_command == "report":
        return _cmd_campaign_report(args)
    return _cmd_campaign_run(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.tracing import check_trace, convert_jsonl_to_chrome

    if args.trace_command == "record":
        sim = _simulation(args, {})
        sim.run(trace=args.output, check_invariants=args.check)
        print(
            f"trace written to {args.output} "
            f"({len(sim.tracer.records)} records)"
        )
        if args.check:
            print("invariants OK")
        return EXIT_OK

    if args.trace_command == "convert":
        written = convert_jsonl_to_chrome(args.input, args.output)
        print(f"wrote {written}")
        return EXIT_OK

    # trace check
    violations = check_trace(args.input, num_nodes=args.nodes)
    if violations:
        for violation in violations:
            print(str(violation), file=sys.stderr)
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return EXIT_REGRESSION
    print("invariants OK")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import format_profile_report, profile_run

    payload = profile_run(
        num_jobs=args.jobs,
        num_nodes=args.nodes,
        algorithm=args.algorithm,
        seed=args.seed,
        cprofile=args.cprofile,
        top=args.top,
        trace_malloc=args.tracemalloc,
    )
    print(format_profile_report(payload))
    if args.output is not None:
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"profile written to {args.output}")
    return EXIT_OK


def _split_csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _load_scenario(path: str) -> dict:
    """A scenario file of ``whatif``, checked before anything looks inside."""
    from repro.batch.system import _read_scenario

    spec = read_json(path, InputError)
    try:
        _read_scenario(spec)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return spec


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.replay import run_with_snapshots, whatif

    base = _load_scenario(args.base)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    def dump(record: dict, name: str) -> Path:
        path = output_dir / name
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    if args.resume_at is not None:
        if not 0.0 < args.resume_at < 1.0:
            print("--resume-at must be a fraction in (0, 1)", file=sys.stderr)
            return EXIT_USAGE
        cold, snapshots = run_with_snapshots(base, args.snapshot_every)
        if not snapshots:
            print(
                "run finished before the first checkpoint; lower "
                "--snapshot-every",
                file=sys.stderr,
            )
            return EXIT_USAGE
        total = cold["processed_events"]
        target = args.resume_at * total
        snap = min(snapshots, key=lambda s: abs(s.processed_events - target))
        resumed_sim = Simulation.resume(snap)
        resumed_sim.run()
        resumed = resumed_sim.run_record()
        cold_path = dump(cold, "cold_record.json")
        resumed_path = dump(resumed, "resumed_record.json")
        identical = json.dumps(cold, sort_keys=True) == json.dumps(
            resumed, sort_keys=True
        )
        print(
            f"resumed from checkpoint at t={snap.time:g} "
            f"({snap.processed_events}/{total} events, "
            f"{len(snapshots)} checkpoints)"
        )
        print(f"  cold:    {cold_path}")
        print(f"  resumed: {resumed_path}")
        print(f"records byte-identical: {identical}")
        return EXIT_OK if identical else EXIT_REGRESSION

    if args.edited is None:
        print("provide --edited (replay an edit) or --resume-at (self-test)",
              file=sys.stderr)
        return EXIT_USAGE
    edited = _load_scenario(args.edited)
    snapshots = None
    if args.checkpoints is not None:
        from repro.replay.whatif import _checkpoint_set

        snapshots = _checkpoint_set(base, Path(args.checkpoints), args.snapshot_every)
    result = whatif(base, edited, snapshots=snapshots, snapshot_every=args.snapshot_every)
    record_path = dump(result.record, "whatif_record.json")
    if result.warm:
        print(
            f"warm replay from checkpoint at t={result.snapshot_time:g}: "
            f"replayed {result.events_replayed} of {result.events_total} "
            f"events ({result.events_saved} saved)"
        )
    else:
        print(f"cold run ({result.reason})")
    print(f"record: {record_path}")
    if args.verify:
        sim = Simulation.from_spec(edited)
        sim.run(until=edited.get("sim", {}).get("until"))
        reference = sim.run_record()
        identical = json.dumps(reference, sort_keys=True) == json.dumps(
            result.record, sort_keys=True
        )
        print(f"verified against cold run: byte-identical={identical}")
        if not identical:
            dump(reference, "cold_record.json")
            return EXIT_REGRESSION
    return EXIT_OK


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.fuzz import (
        ORACLES,
        FuzzFailure,
        fuzz_run,
        replay_scenario,
        shrink_failure,
        write_reproducer,
    )
    from repro.fuzz.generate import DEFAULT_BUDGET

    if args.fuzz_command == "replay":
        failed = 0
        for path in args.inputs:
            failures = replay_scenario(path, oracles=_split_csv(args.oracles))
            if failures:
                failed += 1
                for failure in failures:
                    print(f"{path}: {failure}", file=sys.stderr)
            else:
                print(f"{path}: OK")
        if failed:
            print(f"{failed}/{len(args.inputs)} reproducer(s) failing",
                  file=sys.stderr)
            return EXIT_REGRESSION
        return EXIT_OK

    if args.fuzz_command == "shrink":
        data = read_json(args.input, InputError)
        scenario = data.get("scenario", data)
        oracles = _split_csv(getattr(args, "oracles", None)) or data.get("oracles")
        failures = replay_scenario(scenario, oracles=oracles)
        if not failures:
            print("scenario passes all oracles; nothing to shrink",
                  file=sys.stderr)
            return EXIT_USAGE
        case = FuzzFailure(
            seed=scenario.get("seed", 0),
            algorithm=scenario.get("algorithm", "easy"),
            scenario=scenario,
            failures=failures,
        )
        small, evals = shrink_failure(
            case, max_evals=args.max_evals, bisect=args.bisect
        )
        small_failures = replay_scenario(
            small, oracles=[f.oracle for f in failures if f.oracle in ORACLES]
        )
        paths = write_reproducer(
            small, small_failures or failures, args.output_dir
        )
        jobs = len(small["workload"]["inline"]["jobs"])
        nodes = small["platform"]["nodes"]["count"]
        print(
            f"shrunk to {jobs} job(s) on {nodes} node(s) "
            f"after {evals} predicate evaluation(s)"
        )
        for kind, path in paths.items():
            print(f"  {kind}: {path}")
        return EXIT_REGRESSION

    # fuzz run
    budget = DEFAULT_BUDGET
    overrides = {}
    if args.max_nodes is not None:
        overrides["max_nodes"] = args.max_nodes
    if args.max_jobs is not None:
        overrides["max_jobs"] = args.max_jobs
    if overrides:
        budget = dataclasses.replace(budget, **overrides)
    report = fuzz_run(
        args.seed,
        args.count,
        algorithms=_split_csv(args.algorithms),
        oracles=_split_csv(args.oracles),
        budget=budget,
        max_failures=args.max_failures,
    )
    print(
        f"fuzz: {report.cases} case(s), base seed {report.base_seed}, "
        f"oracles: {', '.join(report.oracles)}"
    )
    if args.report is not None:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.report}")
    if report.ok:
        print("all oracles passed")
        return EXIT_OK
    for case in report.failures:
        print(
            f"FAIL seed={case.seed} algorithm={case.algorithm}",
            file=sys.stderr,
        )
        for failure in case.failures:
            print(f"  {failure}", file=sys.stderr)
    if args.output_dir is not None:
        for case in report.failures:
            scenario, failures = case.scenario, case.failures
            if not args.no_shrink:
                scenario, _ = shrink_failure(case)
                failures = replay_scenario(
                    scenario,
                    oracles=[f.oracle for f in case.failures
                             if f.oracle in ORACLES],
                ) or case.failures
            paths = write_reproducer(
                scenario,
                failures,
                args.output_dir,
                stem=f"fuzz-{case.seed}-{case.algorithm.replace(':', '-')}",
            )
            print(f"reproducer: {paths['record']}", file=sys.stderr)
    print(f"{len(report.failures)} failing case(s)", file=sys.stderr)
    return EXIT_REGRESSION


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.scheduler.algorithms import _REGISTRY

    for name, cls in sorted(_REGISTRY.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:14s} {doc}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "campaign": _cmd_campaign,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "whatif": _cmd_whatif,
    "fuzz": _cmd_fuzz,
    "algorithms": _cmd_algorithms,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SchedulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except BatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - last-resort traceback shield
        # Resolved here, on the error path, so a clean run never imports
        # the flight recorder for it.
        from repro.tracing import InvariantViolation

        if not isinstance(exc, InvariantViolation):
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"invariant violation: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_REGRESSION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
