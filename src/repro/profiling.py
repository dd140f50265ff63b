"""Hot-path profiling harness for the simulation engine.

:func:`profile_run` executes one reference-configuration simulation (the
same platform/workload family as benchmark E5) and splits its wall-clock
time into the engine's hot sections:

``solver``
    Cumulative time inside ``solve_max_min`` (the fair-share kernel), read
    from the model's own ``solver_time`` counter.
``scheduler``
    Time inside the scheduling algorithm's ``schedule()`` (wrapped per
    instance for the duration of the run).
``other``
    Everything else — event kernel, activity bookkeeping, expression
    evaluation (under 1 % of a run; its counters are reported), monitoring.

Alongside the section split it reports the engine's own perf counters
(solver path counts, expression memo hit rate, processed events) and can
optionally attach a cProfile top-functions table.  The result is a plain
JSON-serialisable dict with a versioned ``schema`` tag; ``elastisim
profile`` and ``benchmarks/profile_hotpaths.py`` are thin wrappers around
it.  See ``docs/PERFORMANCE.md`` for how to read the output.

The section timers add a few percent of overhead (two ``perf_counter``
calls per wrapped invocation); treat ``wall_s`` from a profile run as an
upper bound and use benchmark E5 for headline numbers.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

from repro.batch import Simulation
from repro.expressions import STATS as _EXPR_STATS
from repro.platform import platform_from_dict
from repro.workload import WorkloadSpec, generate_workload

__all__ = ["profile_run", "format_profile_report", "peak_rss_mb", "PROFILE_SCHEMA"]

#: Version tag stamped into every profile payload.  ``/2`` added the
#: ``memory`` section (peak RSS, optional tracemalloc allocation stats);
#: ``/3`` dropped ``sections.expressions_s``.
PROFILE_SCHEMA = "elastisim-profile/3"


def peak_rss_mb() -> float:
    """Peak resident-set size of this process in MiB (0.0 if unknown).

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — kilobytes on Linux,
    bytes on macOS.  The value is a high-water mark for the *process*, so
    in a long-lived process it reflects the largest phase so far, not the
    current working set; benchmark drivers that want per-scenario peaks
    should run scenarios in subprocesses or compare successive readings.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    import sys

    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return maxrss / divisor


def _reference_simulation(
    num_jobs: int, num_nodes: int, algorithm: str, seed: int
) -> Simulation:
    """Build the E5 scheduling-bound reference scenario.

    Mirrors ``benchmarks/common.py``'s evaluation platform and workload mix
    (offered load 0.9, power-of-two node requests, comm_bytes=0 so event
    counts are dominated by scheduling) without importing the benchmarks
    package — the engine must not depend on the test harness.
    """
    platform = platform_from_dict(
        {
            "name": f"eval-{num_nodes}",
            "nodes": {"count": num_nodes, "flops": 1e12},
            "network": {
                "topology": "star",
                "bandwidth": 10e9,
                "latency": 1e-6,
                "pfs_bandwidth": 200e9,
            },
            "pfs": {"read_bw": 100e9, "write_bw": 80e9},
        }
    )
    max_request = min(64, num_nodes)
    mean_interarrival = 10.0
    exps = range(int(math.log2(max_request)) + 1)
    mean_request = sum(2.0**e for e in exps) / len(exps)
    mean_runtime = 0.9 * mean_interarrival * num_nodes / mean_request
    jobs = generate_workload(
        WorkloadSpec(
            num_jobs=num_jobs,
            mean_interarrival=mean_interarrival,
            min_request=1,
            max_request=max_request,
            mean_runtime=mean_runtime,
            runtime_sigma=0.8,
            comm_bytes=0.0,
            walltime_slack=10.0,
            node_flops=1e12,
        ),
        seed=seed,
    )
    return Simulation(platform, jobs, algorithm=algorithm)


def profile_run(
    *,
    num_jobs: int = 200,
    num_nodes: int = 128,
    algorithm: str = "easy",
    seed: int = 3,
    cprofile: bool = False,
    top: int = 25,
    trace_malloc: bool = False,
) -> Dict[str, Any]:
    """Run the reference scenario and return a profile payload.

    Returns a JSON-serialisable dict: configuration, wall clock, the
    section split described in the module docstring, solver and expression
    counters, a ``memory`` section (peak RSS always; allocation stats when
    ``trace_malloc=True`` — tracing slows the run several-fold, so wall
    numbers from a traced run are not comparable), and (with
    ``cprofile=True``) the ``top`` functions by internal time.
    """
    sim = _reference_simulation(num_jobs, num_nodes, algorithm, seed)
    scheduler_s = 0.0
    perf_counter = time.perf_counter

    # Wrap the algorithm instance's schedule() — instance attribute, so
    # only this run is affected.
    algo = sim.batch.algorithm
    orig_schedule = algo.schedule

    def timed_schedule(*args: Any, **kwargs: Any) -> Any:
        nonlocal scheduler_s
        t0 = perf_counter()
        try:
            return orig_schedule(*args, **kwargs)
        finally:
            scheduler_s += perf_counter() - t0

    algo.schedule = timed_schedule  # type: ignore[method-assign]

    profiler = None
    if cprofile:
        import cProfile

        profiler = cProfile.Profile()

    tm = None
    if trace_malloc:
        import tracemalloc as tm

    expr_start = _EXPR_STATS.snapshot()
    try:
        if tm is not None:
            tm.start(1)
        start = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            monitor = sim.run()
        finally:
            if profiler is not None:
                profiler.disable()
        wall = perf_counter() - start
        malloc_stats = None
        if tm is not None:
            current_b, peak_b = tm.get_traced_memory()
            top_allocs = [
                {
                    "location": f"{stat.traceback[0].filename}:{stat.traceback[0].lineno}",
                    "size_mb": stat.size / (1024.0 * 1024.0),
                    "blocks": stat.count,
                }
                for stat in tm.take_snapshot().statistics("lineno")[:10]
            ]
            malloc_stats = {
                "current_mb": current_b / (1024.0 * 1024.0),
                "peak_mb": peak_b / (1024.0 * 1024.0),
                "top_allocations": top_allocs,
            }
    finally:
        if tm is not None:
            tm.stop()
        algo.schedule = orig_schedule  # type: ignore[method-assign]

    solver = monitor.solver
    solver_s = solver.solver_time if solver is not None else 0.0
    other_s = max(0.0, wall - solver_s - scheduler_s)
    events = sim.env.processed_events
    payload: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "config": {
            "num_jobs": num_jobs,
            "num_nodes": num_nodes,
            "algorithm": algorithm,
            "seed": seed,
        },
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sections": {
            "solver_s": solver_s,
            "scheduler_s": scheduler_s,
            "other_s": other_s,
        },
        "counters": {
            "invocations": sim.batch.invocations,
            "completed_jobs": monitor.summary().completed_jobs,
            "solver": solver.as_dict() if solver is not None else {},
            "expressions": _EXPR_STATS.since(expr_start).as_dict(),
        },
        "memory": {
            "peak_rss_mb": peak_rss_mb(),
            "tracemalloc": malloc_stats,
        },
    }
    if profiler is not None:
        payload["top_functions"] = _top_functions(profiler, top)
    return payload


def _top_functions(profiler: Any, top: int) -> List[Dict[str, Any]]:
    """Extract the ``top`` rows by internal time from a cProfile run."""
    import pstats

    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    rows.sort(key=lambda row: row["tottime_s"], reverse=True)
    return rows[:top]


def format_profile_report(payload: Dict[str, Any]) -> str:
    """Render a profile payload as a human-readable text report."""
    config = payload["config"]
    sections = payload["sections"]
    counters = payload["counters"]
    wall = payload["wall_s"]
    lines = [
        f"profile: {config['num_jobs']} jobs / {config['num_nodes']} nodes "
        f"/ {config['algorithm']} (seed {config['seed']})",
        f"wall       : {wall:.3f} s "
        f"({payload['events']} events, {payload['events_per_s']:.0f} ev/s)",
    ]
    for key, label in (
        ("solver_s", "solver"),
        ("scheduler_s", "scheduler"),
        ("other_s", "kernel/other"),
    ):
        value = sections[key]
        share = value / wall if wall > 0 else 0.0
        lines.append(f"{label:11s}: {value:.3f} s ({share:6.1%})")
    solver = counters.get("solver") or {}
    if solver:
        lines.append(
            "solver     : "
            f"{solver.get('resolves', 0)} resolves "
            f"(fast={solver.get('fast_solves', 0)} "
            f"scalar={solver.get('scalar_solves', 0)} "
            f"vector={solver.get('vector_solves', 0)})"
        )
    expr = counters.get("expressions") or {}
    if expr:
        lines.append(
            "expressions: "
            f"{expr.get('evaluations', 0)} evaluations, "
            f"hit rate {expr.get('hit_rate', 0.0):.1%}"
        )
    memory = payload.get("memory") or {}
    if memory:
        line = f"memory     : peak RSS {memory.get('peak_rss_mb', 0.0):.1f} MiB"
        malloc_stats = memory.get("tracemalloc")
        if malloc_stats:
            line += (
                f", traced peak {malloc_stats['peak_mb']:.1f} MiB "
                f"(current {malloc_stats['current_mb']:.1f} MiB)"
            )
        lines.append(line)
        for row in (malloc_stats or {}).get("top_allocations", [])[:5]:
            lines.append(
                f"  {row['size_mb']:8.1f} MiB  {row['blocks']:>9} blocks  "
                f"{row['location']}"
            )
    for row in payload.get("top_functions", [])[:10]:
        lines.append(
            f"  {row['tottime_s']:8.3f}s  {row['calls']:>9} calls  "
            f"{row['function']}"
        )
    return "\n".join(lines)
