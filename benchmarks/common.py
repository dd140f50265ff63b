"""Shared experiment infrastructure for the benchmark harness.

Every experiment (see DESIGN.md §4) uses the same reference platform — a
flat 128-node cluster in the size class the paper's evaluation targets —
and prints paper-style rows via :func:`print_table` so running::

    pytest benchmarks/ --benchmark-only -s

regenerates the numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Union

from repro import Simulation, platform_from_dict
from repro.campaign import CampaignReport, CampaignRunner, ResultCache, ScenarioSpec
from repro.monitoring import Monitor
from repro.workload import WorkloadSpec, generate_workload


def reference_platform_dict(
    num_nodes: int = 128,
    *,
    node_flops: float = 1e12,
    link_bw: float = 10e9,
    pfs_read: float = 100e9,
    pfs_write: float = 80e9,
    burst_buffers: bool = False,
) -> Dict[str, Any]:
    """The evaluation platform as a plain spec dict (campaign-friendly)."""
    spec: Dict[str, Any] = {
        "name": f"eval-{num_nodes}",
        "nodes": {"count": num_nodes, "flops": node_flops},
        "network": {
            "topology": "star",
            "bandwidth": link_bw,
            "latency": 1e-6,
            "pfs_bandwidth": max(pfs_read, pfs_write) * 2,
        },
        "pfs": {"read_bw": pfs_read, "write_bw": pfs_write},
    }
    if burst_buffers:
        spec["burst_buffer"] = {
            "read_bw": 10e9,
            "write_bw": 5e9,
            "capacity": 1e13,
        }
    return spec


def reference_platform(num_nodes: int = 128, **kwargs):
    """The evaluation platform: flat cluster, shared PFS, optional BBs."""
    return platform_from_dict(reference_platform_dict(num_nodes, **kwargs))


def evaluation_generate_spec(
    *,
    num_jobs: int = 100,
    malleable_fraction: float = 0.0,
    evolving_fraction: float = 0.0,
    data_per_node: float = 0.0,
    mean_interarrival: float = 20.0,
    max_request: int = 64,
    comm_bytes: float = 1e7,
    io: bool = False,
    serial_fraction: float = 0.0,
    load: float = 0.9,
    num_nodes: int = 128,
    node_flops: float = 1e12,
    work_sigma: float = 0.8,
) -> Dict[str, Any]:
    """The evaluation job mix as :class:`WorkloadSpec` kwargs.

    Job work is sized so the *offered load* — mean arriving flops per
    second over machine capacity — equals ``load``; this is what makes the
    scheduling comparisons meaningful (an empty machine hides all policy
    differences).  Returned as a plain dict so the same mix can feed
    either :func:`evaluation_workload` or a campaign's ``generate`` block.
    """
    # Offered load = (mean_runtime x mean_request) / (interarrival x N);
    # solve for mean_runtime given the power-of-two request distribution.
    import numpy as np

    exps = np.arange(0, int(np.log2(max_request)) + 1)
    mean_request = float(np.mean(2.0**exps))
    mean_runtime = load * mean_interarrival * num_nodes / mean_request
    return {
        "num_jobs": num_jobs,
        "mean_interarrival": mean_interarrival,
        "min_request": 1,
        "max_request": max_request,
        "mean_runtime": mean_runtime,
        "runtime_sigma": work_sigma,
        "malleable_fraction": malleable_fraction,
        "evolving_fraction": evolving_fraction,
        "data_per_node": data_per_node,
        "comm_bytes": comm_bytes,
        "serial_fraction": serial_fraction,
        "input_bytes_per_flop": 1e-4 if io else 0.0,
        "output_bytes_per_flop": 2e-4 if io else 0.0,
        "walltime_slack": 10.0,
        "node_flops": node_flops,
    }


def evaluation_workload(*, seed: int = 42, **kwargs):
    """The iterative-application job mix used across experiments."""
    return generate_workload(WorkloadSpec(**evaluation_generate_spec(**kwargs)), seed=seed)


def evaluation_scenario(
    *,
    algorithm: str = "easy",
    seed: int = 42,
    num_nodes: int = 128,
    platform_kwargs: Optional[Dict[str, Any]] = None,
    sim: Optional[Dict[str, Any]] = None,
    params: Optional[Dict[str, Any]] = None,
    **workload_kwargs,
) -> ScenarioSpec:
    """One evaluation-grid point as a campaign scenario.

    Runs the exact same physics as ``run_sim(reference_platform(...),
    evaluation_workload(...), algorithm)`` — the workload kwargs land in
    the scenario's ``generate`` block and are re-generated (same seed,
    same spec, same jobs) inside the campaign worker.
    """
    return ScenarioSpec(
        platform=reference_platform_dict(num_nodes, **(platform_kwargs or {})),
        workload={
            "generate": evaluation_generate_spec(num_nodes=num_nodes, **workload_kwargs)
        },
        algorithm=algorithm,
        seed=seed,
        sim=dict(sim or {}),
        params=dict(params or {}),
    )


def run_campaign(
    scenarios: Sequence[ScenarioSpec],
    *,
    name: str = "bench",
    workers: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    force: bool = False,
) -> CampaignReport:
    """Run a scenario sweep through the campaign runner.

    The benchmark-side twin of ``elastisim campaign run``: parallel across
    cores by default, cached under ``cache_dir`` when given (pass ``None``
    to disable caching — benchmark timing runs must not be memoised away).
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return CampaignRunner(
        scenarios, name=name, workers=workers, cache=cache, force=force
    ).run()


def run_sim(platform, jobs, algorithm, **kwargs) -> Monitor:
    """One simulation run returning its monitor."""
    return Simulation(platform, jobs, algorithm=algorithm, **kwargs).run()


def print_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    note: Optional[str] = None,
) -> None:
    """Print a paper-style results table to stdout."""
    rows = [list(map(_fmt, row)) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print()
    print(f"=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if note:
        print(f"note: {note}")


def bench_results_dir() -> Path:
    """Directory benchmark JSON artefacts land in.

    Defaults to ``benchmarks/results/`` next to this file; override with the
    ``BENCH_RESULTS_DIR`` environment variable (CI points it at a scratch
    directory).  Created on demand.
    """
    root = Path(os.environ.get("BENCH_RESULTS_DIR", Path(__file__).parent / "results"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def write_bench_json(
    bench_id: str,
    *,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Emit ``BENCH_<id>.json`` alongside the printed table.

    The machine-readable twin of :func:`print_table`: the same rows, keyed
    by the header, plus any ``extra`` run-level metrics (wall-clock,
    ``env.processed_events``, ``model.resolves``, solver counters, …).
    Written every run so the perf trajectory is diffable across PRs.
    """
    header = [str(h) for h in header]
    payload: Dict[str, Any] = {
        "bench": bench_id,
        "title": title,
        "header": header,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if extra:
        payload.update(extra)
    path = bench_results_dir() / f"BENCH_{bench_id}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False, default=str))
    return path


def profiled_calls(fn: Callable[[], Any]) -> int:
    """Function calls (Python and C) one ``fn()`` makes, counted by cProfile.

    A deterministic cost proxy: on one interpreter version the count
    repeats exactly from run to run, so it can be gated where wall-clock
    cannot (see ``tests/test_call_budget.py`` and E5's
    ``pycalls_per_event`` column).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(fn)
    return pstats.Stats(profiler).total_calls


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.2f}"
    return str(value)
