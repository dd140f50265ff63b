"""Campaign harness benchmark: parallel fan-out + content-addressed cache.

Runs a 32-scenario evaluation sweep (algorithm x load x malleable-share x
seed) three ways and writes ``BENCH_campaign.json``:

* ``serial-loop``   — the plain one-`Simulation`-at-a-time loop the
  campaign runner replaces (the pre-campaign baseline);
* ``parallel-cold`` — :class:`CampaignRunner` over all cores, empty cache
  (the default ``process-pool`` executor);
* ``cache-warm``    — the same campaign again, answered from the cache;
* ``executor-*``    — the same sweep, cold, through every other executor
  backend: ``in-process`` and a ``queue-worker`` fleet of
  :data:`QUEUE_WORKERS` spawned worker processes.

Asserted floors (acceptance criteria): with >= 8 cores the parallel
campaign must beat the serial loop >= 3x; with >= 4 cores the 3-worker
queue fleet must beat it >= 2x; and the warm re-run must finish in under
10% of the cold time on any machine.  Every executor's records must also
be *fingerprint-identical* to serial execution — speed never buys a
different answer.

The deterministic aggregate report lands in
``<results>/campaign_bench/campaign.json``; CI diffs it against
``benchmarks/baselines/campaign_bench.json``.

``BENCH_campaign_keying.json`` holds what the runner pays per scenario
before anything executes — ``key()`` + ``as_record()`` — over three
passes of the same scenario objects, with the number of times a spec was
canonicalised: once per scenario in the first pass, never again (CI
gates that column against ``benchmarks/baselines/``).
"""

import os
import time

import pytest

from benchmarks.common import (
    evaluation_scenario,
    print_table,
    reference_platform,
    run_sim,
    bench_results_dir,
    write_bench_json,
)
import repro.campaign.spec as campaign_spec
from repro.campaign import CampaignRunner, ResultCache, result_fingerprint
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ["easy", "malleable"]
LOADS = [0.7, 1.1]
SHARES = [0.0, 0.5]
SEEDS = [11, 12, 13, 14]
NUM_JOBS = 25
NUM_NODES = 32
MAX_REQUEST = 16

#: The acceptance floor only binds where the hardware can deliver it.
PARALLEL_FLOOR = 3.0
PARALLEL_FLOOR_MIN_CORES = 8
WARM_FRACTION_CEILING = 0.10

#: Distributed floor: a 3-worker queue fleet must beat the serial loop
#: >= 2x — but only where the cores exist to run the fleet at all.
QUEUE_WORKERS = 3
QUEUE_FLOOR = 2.0
QUEUE_FLOOR_MIN_CORES = 4


def _grid():
    return [
        evaluation_scenario(
            algorithm=algorithm,
            seed=seed,
            num_jobs=NUM_JOBS,
            num_nodes=NUM_NODES,
            max_request=MAX_REQUEST,
            load=load,
            malleable_fraction=share,
            params={"load": load, "share": share},
        )
        for algorithm in ALGORITHMS
        for load in LOADS
        for share in SHARES
        for seed in SEEDS
    ]


def _serial_loop(scenarios):
    """The pre-campaign workflow: generate, build, run — one at a time."""
    summaries = []
    for scenario in scenarios:
        generate = dict(scenario.workload["generate"])
        jobs = generate_workload(WorkloadSpec(**generate), seed=scenario.seed)
        platform = reference_platform(NUM_NODES)
        summaries.append(run_sim(platform, jobs, scenario.algorithm).summary())
    return summaries


@pytest.fixture(scope="module")
def campaign_timings(tmp_path_factory):
    scenarios = _grid()
    assert len(scenarios) == 32

    t0 = time.perf_counter()
    serial_summaries = _serial_loop(scenarios)
    serial_s = time.perf_counter() - t0

    cache = ResultCache(tmp_path_factory.mktemp("campaign-cache"))
    workers = min(PARALLEL_FLOOR_MIN_CORES, os.cpu_count() or 1)
    runner = CampaignRunner(scenarios, name="bench", workers=workers, cache=cache)
    t0 = time.perf_counter()
    cold = runner.run()
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = CampaignRunner(
        scenarios, name="bench", workers=workers, cache=cache
    ).run()
    warm_s = time.perf_counter() - t0

    # Executor matrix: the same sweep, cold and cacheless, through every
    # other backend.  (parallel-cold above already measures process-pool,
    # the default executor.)
    executor_runs = {}
    matrix = [
        ("in-process", {}),
        (
            "queue-worker",
            {
                "queue_dir": tmp_path_factory.mktemp("bench-queue") / "q",
                "workers": QUEUE_WORKERS,
            },
        ),
    ]
    for name, options in matrix:
        runner = CampaignRunner(
            scenarios,
            name="bench",
            workers=workers,
            cache=None,
            executor=name,
            executor_options=options,
        )
        t0 = time.perf_counter()
        report = runner.run()
        executor_runs[name] = {
            "report": report,
            "wall_s": time.perf_counter() - t0,
        }

    return {
        "scenarios": scenarios,
        "serial_summaries": serial_summaries,
        "serial_s": serial_s,
        "cold": cold,
        "cold_s": cold_s,
        "warm": warm,
        "warm_s": warm_s,
        "workers": workers,
        "executor_runs": executor_runs,
    }


def test_parallel_matches_serial_loop(campaign_timings):
    """The campaign runner must reproduce the serial loop exactly."""
    cold = campaign_timings["cold"]
    assert len(cold.failed) == 0
    for record, summary in zip(cold.records, campaign_timings["serial_summaries"]):
        got = record["result"]["summary"]
        assert got["makespan"] == summary.makespan
        assert got["completed_jobs"] == summary.completed_jobs
        assert got["total_reconfigurations"] == summary.total_reconfigurations


def test_warm_rerun_is_fingerprint_identical(campaign_timings):
    cold, warm = campaign_timings["cold"], campaign_timings["warm"]
    assert warm.cache_hits == len(warm.records)
    for a, b in zip(cold.records, warm.records):
        assert result_fingerprint(a) == result_fingerprint(b)


def test_executor_matrix_is_fingerprint_identical(campaign_timings):
    """Every executor backend must produce byte-identical results."""
    reference = [
        result_fingerprint(r) for r in campaign_timings["cold"].records
    ]
    for name, run in campaign_timings["executor_runs"].items():
        report = run["report"]
        assert len(report.failed) == 0, f"{name} executor had failures"
        assert report.executor == name
        assert [
            result_fingerprint(r) for r in report.records
        ] == reference, f"{name} executor diverged from process-pool results"


def test_campaign_speedups_and_report(campaign_timings):
    serial_s = campaign_timings["serial_s"]
    cold_s = campaign_timings["cold_s"]
    warm_s = campaign_timings["warm_s"]
    workers = campaign_timings["workers"]
    cores = os.cpu_count() or 1

    speedup = serial_s / cold_s if cold_s > 0 else float("inf")
    warm_fraction = warm_s / cold_s if cold_s > 0 else 0.0
    rows = [
        ["serial-loop", 32, serial_s, 1.0],
        ["parallel-cold", 32, cold_s, speedup],
        ["cache-warm", 32, warm_s, serial_s / warm_s if warm_s > 0 else float("inf")],
    ]
    executor_speedups = {}
    for name, run in campaign_timings["executor_runs"].items():
        wall = run["wall_s"]
        executor_speedups[name] = serial_s / wall if wall > 0 else float("inf")
        rows.append([f"executor-{name}", 32, wall, executor_speedups[name]])
    print_table(
        "campaign: 32-scenario sweep, serial loop vs campaign runner",
        ["mode", "scenarios", "wall_s", "speedup_vs_serial"],
        rows,
        note=f"{cores} cores, {workers} workers; warm fraction "
        f"{warm_fraction:.3f} (ceiling {WARM_FRACTION_CEILING}); "
        f"queue fleet {QUEUE_WORKERS} workers",
    )
    out = campaign_timings["cold"].write(bench_results_dir() / "campaign_bench")
    write_bench_json(
        "campaign",
        title="campaign harness: parallel fan-out + result cache",
        header=["mode", "scenarios", "wall_s", "speedup_vs_serial"],
        rows=rows,
        extra={
            "cpu_count": cores,
            "workers": workers,
            "warm_fraction": warm_fraction,
            "warm_cache_hits": campaign_timings["warm"].cache_hits,
            "parallel_floor_asserted": cores >= PARALLEL_FLOOR_MIN_CORES,
            "queue_floor_asserted": cores >= QUEUE_FLOOR_MIN_CORES,
            "queue_workers": QUEUE_WORKERS,
            "executor_speedups": executor_speedups,
            "aggregate_report": str(out["aggregate"]),
        },
    )

    # An immediate re-run must be answered from the cache, near-free.
    assert warm_fraction < WARM_FRACTION_CEILING
    # The parallel floor binds only where the cores exist to deliver it.
    if cores >= PARALLEL_FLOOR_MIN_CORES:
        assert speedup >= PARALLEL_FLOOR, (
            f"campaign speedup {speedup:.2f}x below the {PARALLEL_FLOOR}x floor "
            f"on {cores} cores"
        )
    # So does the distributed floor: a 3-worker fleet pays process spawn
    # and filesystem-queue overhead, but must still halve the wall time.
    if cores >= QUEUE_FLOOR_MIN_CORES:
        queue_speedup = executor_speedups["queue-worker"]
        assert queue_speedup >= QUEUE_FLOOR, (
            f"queue-worker speedup {queue_speedup:.2f}x below the "
            f"{QUEUE_FLOOR}x floor on {cores} cores"
        )


def test_scenario_keying_overhead(monkeypatch):
    """``key()`` + ``as_record()`` per scenario, pass by pass."""
    specs_canonicalised = [0]
    canonicalize = campaign_spec.canonicalize

    def counting(value):
        # Nested calls see fragments; only a whole spec has a platform.
        if isinstance(value, dict) and "platform" in value:
            specs_canonicalised[0] += 1
        return canonicalize(value)

    monkeypatch.setattr(campaign_spec, "canonicalize", counting)
    scenarios = _grid()
    rows = []
    for number in (1, 2, 3):
        specs_canonicalised[0] = 0
        t0 = time.perf_counter()
        keys = [scenario.key() for scenario in scenarios]
        key_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        records = [scenario.as_record() for scenario in scenarios]
        record_s = time.perf_counter() - t0
        assert len(set(keys)) == len(records) == len(scenarios)
        rows.append(
            [
                f"pass-{number}",
                len(scenarios),
                key_s / len(scenarios) * 1e6,
                record_s / len(scenarios) * 1e6,
                specs_canonicalised[0] / len(scenarios),
            ]
        )
    header = ["pass", "scenarios", "key_us", "as_record_us", "canonicalisations_per_scenario"]
    print_table("campaign: keying overhead per scenario", header, rows)
    write_bench_json(
        "campaign_keying",
        title="campaign: key() + as_record() per scenario",
        header=header,
        rows=rows,
    )
    assert [row[4] for row in rows] == [1.0, 0.0, 0.0]
