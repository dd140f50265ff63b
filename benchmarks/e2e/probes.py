"""Layer probes: timed calls into one public function of one module each.

A traced run of any workload prints every per-layer metric.  The metrics a
workload's own journey does not produce come from here: each probe times a
module's public entry point on a fixed, seeded input and reads the counters
the program already exposes.  They are the same on every workload, so they
say what a layer costs by itself, apart from any journey.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List

import gen
from harness import median, perf_counter

HERE = Path(__file__).resolve().parent


def _timed(fn: Callable[[], object], repeats: int) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return median(samples)


def _fresh_python(code: str) -> List[str]:
    """Run ``code`` in a fresh interpreter; return the fields it printed."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


_IMPORT_CODE = (
    "import sys, time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t, len(sys.modules), "
    "int('numpy' in sys.modules), int('networkx' in sys.modules))"
)


def cli(quick: bool) -> Dict[str, float]:
    """Start-up cost in fresh processes: the imports and the smallest command."""
    repeats = 1 if quick else 3
    imports = [
        _fresh_python(_IMPORT_CODE.format(module="repro.cli")) for _ in range(repeats)
    ]
    bare = [
        _fresh_python(_IMPORT_CODE.format(module="repro")) for _ in range(repeats)
    ]
    process = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "algorithms"], capture_output=True, check=True
        )
        process.append(perf_counter() - start)
    return {
        "cli.import_s": median([float(row[0]) for row in imports]),
        "cli.import_repro_s": median([float(row[0]) for row in bare]),
        "cli.modules_loaded": int(imports[0][1]),
        "cli.imports_numpy": int(imports[0][2]),
        "cli.imports_networkx": int(imports[0][3]),
        "cli.process_s": median(process),
    }


_PLATFORM_RSS_CODE = (
    "import os, sys; sys.path.insert(0, {here!r}); import gen; "
    "from repro import platform_from_dict; "
    "rss = lambda: int(open('/proc/self/statm').read().split()[1]) * os.sysconf('SC_PAGE_SIZE'); "
    "before = rss(); platform = platform_from_dict(gen.platform_dict({nodes})); "
    "print((rss() - before) / 2.0 ** 20)"
)


def platform(quick: bool) -> Dict[str, float]:
    from repro import platform_from_dict

    big = 5_000 if quick else 50_000
    out = {}
    for label, nodes, repeats in (("n128", 128, 9), ("n10k", 10_000, 3), ("n50k", big, 2)):
        spec = gen.platform_dict(nodes)
        out[f"platform.build_ms.{label}"] = 1e3 * _timed(
            lambda: platform_from_dict(spec), repeats
        )
    rss = _fresh_python(_PLATFORM_RSS_CODE.format(here=str(HERE), nodes=big))
    out["platform.rss_mb.n50k"] = float(rss[0])
    return out


def workload(seed: int, quick: bool) -> Dict[str, float]:
    from repro.workload import (
        WorkloadSpec,
        convert_trace,
        generate_workload,
        parse_swf,
        workload_from_dict,
    )

    inline = gen.rigid_sched(seed, quick)["workload"]["inline"]
    text = gen.swf_text(seed, 200 if quick else 2000)
    records = parse_swf(text)
    spec = WorkloadSpec(num_jobs=100 if quick else 1000)
    return {
        "workload.inline_parse_ms": 1e3 * _timed(lambda: workload_from_dict(inline), 5),
        "workload.generate_ms.j1000": 1e3
        * _timed(lambda: generate_workload(spec, seed=seed), 3),
        "workload.swf_parse_ms.j2000": 1e3 * _timed(lambda: parse_swf(text), 3),
        "workload.swf_convert_ms.j2000": 1e3
        * _timed(
            lambda: convert_trace(
                records, "40,20,40", node_flops=gen.NODE_FLOPS, seed=seed, max_nodes=32
            ),
            3,
        ),
    }


def expressions() -> Dict[str, float]:
    from repro.expressions import compiled_expression

    # Every source is new to the intern cache: the probe times a real compile.
    variants = [
        f"{source} + {k}" for k in range(1, 21) for source in gen.EXPRESSIONS
    ]
    start = perf_counter()
    compiled = [compiled_expression(source) for source in variants]
    compile_s = perf_counter() - start
    subjects = compiled[: len(gen.EXPRESSIONS)]
    passes = 20
    start = perf_counter()
    for _ in range(passes):
        for expression in subjects:
            for bindings in gen.EXPRESSION_BINDINGS:
                expression.evaluate(bindings)
    eval_s = perf_counter() - start
    calls = passes * len(subjects) * len(gen.EXPRESSION_BINDINGS)
    return {
        "expressions.compile_us": 1e6 * compile_s / len(variants),
        "expressions.eval_us": 1e6 * eval_s / calls,
    }


def des(quick: bool) -> Dict[str, float]:
    """A bare ``Environment``: processes that only wait on timeouts."""
    from repro.des import Environment

    def ticker(env, period, ticks):
        for _ in range(ticks):
            yield env.timeout(period)

    def probe():
        env = Environment()
        for index in range(50):
            env.process(ticker(env, 1.0 + index * 0.01, 100 if quick else 400))
        env.run()
        return env.processed_events

    events = probe()
    return {"des.probe_us_per_event": 1e6 * _timed(probe, 3) / events}


def sharing() -> Dict[str, float]:
    """``solve_max_min`` on fixed graphs of 1, 8 and 128 activities."""
    from repro.sharing import Activity, SharedResource, solve_max_min

    pfs = SharedResource("pfs", 2e10)
    links = [SharedResource(f"link{i}", 1e10) for i in range(128)]
    out = {}
    for size, calls in ((1, 2000), (8, 500), (128, 60)):
        activities = [
            Activity(1e9 * (1 + i % 5), {links[i]: 1.0, pfs: 1.0}, weight=1.0 + i % 3)
            for i in range(size)
        ]

        def solve():
            for _ in range(calls):
                solve_max_min(activities)

        out[f"sharing.solve_us.n{size}"] = 1e6 * _timed(solve, 3) / calls
    return out


def monitoring_and_tracing(seed: int, quick: bool) -> Dict[str, float]:
    """``run_record``/``summary`` of a finished run, and the flight recorder's cost.

    The recorder is measured on ``rigid_sched`` with ``trace=Tracer()`` against
    the same run without, in alternation, as a guard on its overhead budget.
    """
    import json

    from repro import Simulation
    from repro.tracing import Tracer

    spec = gen.rigid_sched(seed, quick)
    plain, traced, records = [], [], 0
    monitor = None
    for _ in range(1 if quick else 2):
        sim = Simulation.from_spec(spec)
        start = perf_counter()
        monitor = sim.run()
        plain.append(perf_counter() - start)
        tracer = Tracer()
        sim = Simulation.from_spec(spec)
        start = perf_counter()
        sim.run(trace=tracer)
        traced.append(perf_counter() - start)
        records = len(tracer)
    return {
        "monitoring.record_ms": 1e3 * _timed(monitor.run_record, 5),
        "monitoring.summary_ms": 1e3 * _timed(monitor.summary, 5),
        "monitoring.record_bytes": len(json.dumps(monitor.run_record())),
        "tracing.recorder_overhead_frac": median(traced) / median(plain) - 1.0,
        "tracing.records": records,
    }


def campaign_pool(seed: int, quick: bool) -> Dict[str, float]:
    """Extra wall per scenario of the two-worker process pool over an ideal split."""
    from repro.campaign import CampaignRunner, ScenarioSpec

    grid = gen.campaign_sweep(seed, quick)["grid"][: 8 if quick else 32]
    scenarios = [ScenarioSpec(**entry) for entry in grid]
    start = perf_counter()
    report = CampaignRunner(scenarios, name="bench-pool", executor="process-pool", workers=2).run()
    wall = perf_counter() - start
    if report.failed:
        raise RuntimeError(f"process-pool probe failed: {report.failed[0].get('error')}")
    simulated = sum(record["wall_s"] for record in report.records)
    return {
        "campaign.pool_overhead_ms_per_scenario": 1e3 * (wall - simulated / 2) / len(grid)
    }


def all_probes(seed: int, quick: bool) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(cli(quick))
    out.update(platform(quick))
    out.update(workload(seed, quick))
    out.update(expressions())
    out.update(des(quick))
    out.update(sharing())
    out.update(monitoring_and_tracing(seed, quick))
    out.update(campaign_pool(seed, quick))
    return out
