"""E5 — Simulator performance and scalability (paper's performance section).

Measures wall-clock simulation time and event throughput as the workload
and machine grow.  Expected shape: wall-clock time grows near-linearly
with the number of processed events; clusters in the thousands of nodes
with hundreds of jobs simulate in seconds on a laptop.

Besides the printed table, the run emits ``BENCH_E5.json`` (see
``common.write_bench_json``) with per-configuration event counts, solver
re-solve counts, and the incremental solver's scope counters, so the perf
trajectory is tracked across PRs.
"""

import gc
import time

import pytest

from repro import Simulation
from repro.profiling import peak_rss_mb

from benchmarks.common import (
    evaluation_workload,
    print_table,
    profiled_calls,
    reference_platform,
    write_bench_json,
)

_rows = []


def _simulation(num_jobs: int, num_nodes: int):
    """The simulation, and how long its platform took to build."""
    start = time.perf_counter()
    platform = reference_platform(num_nodes=num_nodes)
    build = time.perf_counter() - start
    jobs = evaluation_workload(
        num_jobs=num_jobs,
        seed=3,
        num_nodes=num_nodes,
        max_request=min(64, num_nodes),
        comm_bytes=0.0,  # keep event counts dominated by scheduling
        mean_interarrival=10.0,
    )
    return Simulation(platform, jobs, algorithm="easy"), build


def _simulate(num_jobs: int, num_nodes: int):
    sim, build = _simulation(num_jobs, num_nodes)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    model = sim.batch.model
    events = sim.env.processed_events
    result = (
        wall,
        events,
        sim.batch.invocations,
        model.resolves,
        model.solved_activities,
        model.peak_components,
        model.solver_time,
        build,
        # Nodes that exist as objects after the run: the ones the
        # workload was ever given, however large the machine.
        sim.batch.platform.nodes.built,
    )
    # The same run once more under cProfile: function calls per event, the
    # cost figure that repeats exactly and is therefore gated in CI.  The
    # first simulation (a cyclic object graph) is collected first so the
    # peak RSS column stays one run's.
    del sim, model
    gc.collect()
    profiled, _ = _simulation(num_jobs, num_nodes)
    calls = profiled_calls(profiled.run)
    assert profiled.env.processed_events == events
    return result + (calls / events,)


def _record(
    label, wall, events, invocations, resolves, scope, peak, solver_time, build, built, pycalls
):
    _rows.append(
        [
            label,
            events,
            invocations,
            wall,
            events / wall,
            resolves,
            scope / resolves if resolves else 0.0,
            peak,
            solver_time,
            # Process high-water mark at the time this row finished; rows
            # run smallest-first, so the last row's value bounds the run.
            peak_rss_mb(),
            pycalls,
            build,
            built,
        ]
    )


@pytest.mark.benchmark(group="e5-performance")
@pytest.mark.parametrize("num_jobs", [100, 300, 1000])
def test_e5_scaling_jobs(benchmark, num_jobs):
    def run():
        return _simulate(num_jobs, 128)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(f"{num_jobs} jobs / 128 nodes", *result)
    assert result[1] > 0


@pytest.mark.benchmark(group="e5-performance")
@pytest.mark.parametrize("num_nodes", [128, 512, 2048])
def test_e5_scaling_nodes(benchmark, num_nodes):
    def run():
        return _simulate(200, num_nodes)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(f"200 jobs / {num_nodes} nodes", *result)
    assert result[1] > 0


@pytest.mark.benchmark(group="e5-performance")
@pytest.mark.parametrize("num_jobs,num_nodes", [(100, 10_000), (20, 100_000)])
def test_e5_scaling_extreme(benchmark, num_jobs, num_nodes):
    """10k/100k-node machines (fewer jobs at the top end).

    Exercises the lazily built fleet and the incremental free-node index
    at machine sizes where any O(num_nodes) build or per-event scan would
    dominate; the CI ``scale-smoke`` job runs these rows under a hard
    timeout against the committed baseline (``nodes_built`` included).
    """

    def run():
        return _simulate(num_jobs, num_nodes)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(f"{num_jobs} jobs / {num_nodes} nodes", *result)
    assert result[1] > 0


_HEADER = [
    "configuration",
    "events",
    "invocations",
    "wall_s",
    "events_per_s",
    "resolves",
    "mean_solve_scope",
    "peak_components",
    "solver_time_s",
    "peak_rss_mb",
    "pycalls_per_event",
    "build_s",
    "nodes_built",
]


@pytest.mark.benchmark(group="e5-performance")
def test_e5_report_and_shape(benchmark):
    def noop():
        return True

    benchmark.pedantic(noop, rounds=1, iterations=1)
    print_table(
        "E5: simulator performance",
        _HEADER,
        _rows,
        note="pure-Python DES; events/s is the throughput figure of merit",
    )
    write_bench_json(
        "E5",
        title="E5: simulator performance",
        header=_HEADER,
        rows=_rows,
        extra={
            "total_wall_s": sum(row[3] for row in _rows),
            "total_events": sum(row[1] for row in _rows),
        },
    )
    # Shape: every configuration completes in reasonable wall time and the
    # event throughput stays within one order of magnitude across scales
    # (near-linear scaling in events).
    assert _rows, "scaling tests must run first"
    rates = [row[4] for row in _rows]
    assert min(rates) > 0
    assert max(rates) / min(rates) < 20
