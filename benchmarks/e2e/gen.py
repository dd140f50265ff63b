"""Seeded input generator of the end-to-end benchmark.

Everything the program under test receives is built here from ``--seed``
with the standard library's ``random.Random``: platform dicts, inline
workloads in the ``workload_to_dict`` JSON schema, the campaign grid and
the what-if edits.  Nothing is taken from ``repro.workload.generate_workload``
or ``benchmarks/common.py``, so the benchmark's inputs stay put when the
program's own generator changes.

The seed changes the *instance*, not its *size*.  The population of jobs —
node requests, iteration counts, runtimes at the evenly spaced quantiles of
the lognormal, job types — is dealt once with a fixed generator and is the
same for every seed; the seed decides the order the jobs arrive in and the
gaps between them.  Rigid workloads then process the same number of events
to within a tenth of a percent on every seed, and the malleable one to
within about two percent, which keeps host cost comparable across the seeds
the driver uses.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import Any, Dict, List

NODE_FLOPS = 1e12


def platform_dict(num_nodes: int, *, pfs_bw: float = 100e9) -> Dict[str, Any]:
    """A flat star cluster with one shared parallel file system."""
    return {
        "name": f"bench-{num_nodes}",
        "nodes": {"count": num_nodes, "flops": NODE_FLOPS},
        "network": {
            "topology": "star",
            "bandwidth": 10e9,
            "latency": 1e-6,
            "pfs_bandwidth": 2 * pfs_bw,
        },
        "pfs": {"read_bw": pfs_bw, "write_bw": 0.8 * pfs_bw},
    }


def _deal(rng: random.Random, items: List[Any]) -> List[Any]:
    dealt = list(items)
    rng.shuffle(dealt)
    return dealt


def _shapes(num_jobs: int, max_request: int, min_iter: int, max_iter: int) -> List[tuple]:
    """``num_jobs`` (request, iterations) pairs, the same multiset for every seed.

    Requests cycle through the powers of two; the iteration count advances by
    one more each time they wrap, so that every request meets every count.
    """
    requests = [2**e for e in range(int(math.log2(max_request)) + 1)]
    span = max_iter - min_iter + 1
    return [
        (requests[k % len(requests)], min_iter + (k + k // len(requests)) % span)
        for k in range(num_jobs)
    ]


def _runtimes(num_jobs: int, mean: float, sigma: float) -> List[float]:
    """Mid-point quantiles of lognormal(mean, sigma): fixed total work."""
    mu = math.log(mean) - sigma * sigma / 2
    normal = NormalDist()
    return [
        math.exp(mu + sigma * normal.inv_cdf((k + 0.5) / num_jobs))
        for k in range(num_jobs)
    ]


def _application(
    name: str,
    *,
    flops: float,
    iterations: int,
    comm_bytes: float,
    input_bytes: float,
    output_bytes: float,
    data_per_node: float,
    evolving_to: int = 0,
) -> Dict[str, Any]:
    """Read, ``iterations`` x [compute, ring exchange], write.

    With ``comm_bytes`` the exchange size is an expression of ``num_nodes``
    (a halo that thins as the job spreads out), so a reconfiguration makes
    the evaluator do real work; without it every magnitude is a constant.
    """
    phases: List[Dict[str, Any]] = []
    if input_bytes > 0:
        phases.append(
            {
                "name": "input",
                "tasks": [{"type": "pfs_read", "bytes": input_bytes}],
                "scheduling_point": False,
            }
        )
    solve: List[Dict[str, Any]] = [
        {"type": "cpu", "name": "compute", "flops": flops / iterations}
    ]
    if comm_bytes > 0:
        solve.append(
            {
                "type": "comm",
                "name": "exchange",
                "bytes": f"{comm_bytes!r} * (0.5 + 2 / (num_nodes + 3))",
                "pattern": "ring",
            }
        )
    if evolving_to:
        # Ask for more nodes once, a third of the way in.
        solve.insert(
            0,
            {
                "type": "evolving_request",
                "name": "grow",
                "num_nodes": f"if(iteration == {iterations // 3}, {evolving_to}, num_nodes)",
            },
        )
    phases.append({"name": "solve", "tasks": solve, "iterations": iterations})
    if output_bytes > 0:
        phases.append(
            {
                "name": "output",
                "tasks": [{"type": "pfs_write", "bytes": output_bytes}],
                "scheduling_point": False,
            }
        )
    app: Dict[str, Any] = {"name": name, "phases": phases}
    if data_per_node:
        app["data_per_node"] = data_per_node
    return app


def workload_dict(
    seed: int,
    *,
    num_jobs: int,
    num_nodes: int,
    load: float = 0.9,
    mean_interarrival: float = 10.0,
    max_request: int = 64,
    runtime_sigma: float = 0.8,
    min_iterations: int = 5,
    max_iterations: int = 20,
    malleable_fraction: float = 0.0,
    evolving_fraction: float = 0.0,
    comm_bytes: float = 0.0,
    input_bytes_per_flop: float = 0.0,
    output_bytes_per_flop: float = 0.0,
    data_per_node: float = 0.0,
    walltime_slack: float = 10.0,
    shrink_factor: int = 4,
) -> Dict[str, Any]:
    """An inline workload (``{"jobs": [...]}``) at the given offered load.

    Offered load is mean arriving node-seconds per second over the machine
    size; jobs are iterative applications with power-of-two requests.
    """
    max_request = min(max_request, num_nodes)
    # The population of jobs is the same for every seed (dealt with a fixed
    # generator); the seed decides the order they arrive in and the gaps.
    fixed = random.Random(20220829)
    shapes = _shapes(num_jobs, max_request, min_iterations, max_iterations)
    mean_request = sum(r for r, _ in shapes) / num_jobs
    mean_runtime = load * mean_interarrival * num_nodes / mean_request
    n_malleable = round(malleable_fraction * num_jobs)
    n_evolving = round(evolving_fraction * num_jobs)
    population = list(
        zip(
            shapes,
            _deal(fixed, _runtimes(num_jobs, mean_runtime, runtime_sigma)),
            _deal(
                fixed,
                ["malleable"] * n_malleable
                + ["evolving"] * n_evolving
                + ["rigid"] * (num_jobs - n_malleable - n_evolving),
            ),
        )
    )
    rng = random.Random(seed)
    rng.shuffle(population)

    jobs: List[Dict[str, Any]] = []
    submit = 0.0
    for index in range(num_jobs):
        (request, iterations), runtime, job_type = population[index]
        work = runtime * request * NODE_FLOPS
        spec: Dict[str, Any] = {
            "id": index + 1,
            "name": f"job{index + 1}",
            "type": job_type,
            "submit_time": submit,
            "num_nodes": request,
        }
        # Malleable jobs may shrink to a quarter of their request but not grow
        # past it; only evolving jobs grow, once, on their own request.  The
        # cost of a run then depends little on how the seed ordered the jobs.
        max_nodes = min(max_request, 2 * request) if job_type == "evolving" else request
        if job_type != "rigid":
            spec["min_nodes"] = max(1, request // shrink_factor)
            spec["max_nodes"] = max_nodes
        spec["walltime"] = walltime_slack * max(runtime, 1.0)
        spec["application"] = _application(
            f"app{index + 1}",
            flops=work,
            iterations=iterations,
            comm_bytes=comm_bytes,
            input_bytes=input_bytes_per_flop * work,
            output_bytes=output_bytes_per_flop * work,
            data_per_node=data_per_node,
            evolving_to=max_nodes if job_type == "evolving" else 0,
        )
        jobs.append(spec)
        submit += rng.expovariate(1.0 / mean_interarrival)
    return {"jobs": jobs}


def scenario(
    platform: Dict[str, Any], workload: Dict[str, Any], algorithm: str, seed: int
) -> Dict[str, Any]:
    """A ``Simulation.from_spec`` scenario over an inline workload."""
    return {
        "platform": platform,
        "workload": {"inline": workload},
        "algorithm": algorithm,
        "seed": seed,
    }


# -- the five workloads ---------------------------------------------------------


def rigid_sched(seed: int, quick: bool = False) -> Dict[str, Any]:
    """Rigid jobs on 128 nodes under EASY: the paper's simulator-performance shape."""
    workload = workload_dict(seed, num_jobs=60 if quick else 300, num_nodes=128)
    return scenario(platform_dict(128), workload, "easy", seed)


def malleable_io(seed: int, quick: bool = False) -> Dict[str, Any]:
    """Half-malleable mix contending for a slow file system and the links."""
    workload = workload_dict(
        seed,
        num_jobs=60 if quick else 260,
        num_nodes=128,
        max_request=16,
        min_iterations=2,
        max_iterations=6,
        malleable_fraction=0.5,
        evolving_fraction=0.1,
        comm_bytes=1e8,
        input_bytes_per_flop=5e-4,
        output_bytes_per_flop=1e-3,
        data_per_node=1e9,
        walltime_slack=200.0,
    )
    return scenario(platform_dict(128, pfs_bw=20e9), workload, "malleable", seed)


def cold_cli(seed: int, quick: bool = False) -> Dict[str, Any]:
    """A very large machine and few jobs: start-up dominates the journey."""
    num_nodes = 2_000 if quick else 40_000
    workload = workload_dict(
        seed, num_jobs=20 if quick else 30, num_nodes=num_nodes, load=0.002
    )
    return {"platform": platform_dict(num_nodes), "workload": workload, "algorithm": "easy"}


def campaign_sweep(seed: int, quick: bool = False) -> Dict[str, Any]:
    """A grid of tiny scenarios: ``first`` runs cold, ``grid`` extends it by a third."""
    algorithms = ["fcfs", "easy", "conservative", "malleable"]
    loads = [0.5, 0.7, 0.9, 1.1]
    seeds = 2 if quick else 6
    points = [
        (algorithm, load, s)
        for s in range(seeds)
        for algorithm in algorithms
        for load in loads
    ]
    grid = []
    for algorithm, load, s in points:
        sub_seed = seed * 1000 + s
        workload = workload_dict(
            sub_seed,
            num_jobs=6,
            num_nodes=16,
            load=load,
            max_request=8,
            malleable_fraction=0.5,
            comm_bytes=1e7,
        )
        grid.append(
            {
                "name": f"{algorithm}/load={load}/seed={s}",
                "params": {"load": load, "seed": s},
                "platform": platform_dict(16),
                "workload": {"inline": workload},
                "algorithm": algorithm,
                "seed": sub_seed,
            }
        )
    return {"grid": grid, "first": len(grid) * 3 // 4}


def whatif_edit(seed: int, quick: bool = False) -> Dict[str, Any]:
    """A base scenario to checkpoint, and where in its run the two edits fall."""
    base = scenario(
        platform_dict(128),
        workload_dict(seed, num_jobs=60 if quick else 240, num_nodes=128),
        "easy",
        seed,
    )
    return {
        "base": base,
        "snapshot_every": 500 if quick else 4000,
        "edit_fractions": (0.5, 0.75),
    }


def edit_after(base: Dict[str, Any], time: float) -> Dict[str, Any]:
    """``base`` with the work of the first job submitted after ``time`` doubled.

    Everything submitted up to ``time`` is untouched, so a checkpoint taken at
    ``time`` can be resumed as the edited scenario.  The journey passes the
    times of the checkpoints nearest 50 % and 75 % of the base run's events:
    each replay then starts at a checkpoint, so how much is replayed does not
    depend on where between two checkpoints a job happened to be submitted.
    """
    jobs = list(base["workload"]["inline"]["jobs"])
    index = next(i for i, job in enumerate(jobs) if job["submit_time"] > time)
    job = dict(jobs[index])
    app = dict(job["application"])
    app["phases"] = [
        {**phase, "iterations": 2 * phase["iterations"]} if phase["name"] == "solve" else phase
        for phase in app["phases"]
    ]
    job["application"] = app
    job["walltime"] = 2 * job["walltime"]
    jobs[index] = job
    return {**base, "workload": {"inline": {"jobs": jobs}}}


# -- inputs of the layer probes ---------------------------------------------------


def swf_text(seed: int, num_jobs: int = 2000) -> str:
    """A Standard Workload Format trace: 18 fields a line, 32-processor machine."""
    rng = random.Random(seed)
    lines = ["; synthetic SWF trace of the end-to-end benchmark"]
    submit = 0
    for job_id in range(1, num_jobs + 1):
        submit += int(rng.expovariate(1 / 120.0))
        procs = 2 ** rng.randrange(6)
        run_time = max(30, int(rng.lognormvariate(6.0, 1.0)))
        requested = int(run_time * rng.uniform(1.1, 2.0))
        status = 1 if rng.random() < 0.93 else 0
        lines.append(
            f"{job_id} {submit} -1 {run_time} {procs} -1 -1 {procs} {requested} -1 "
            f"{status} {rng.randrange(1, 40)} -1 -1 -1 -1 -1 -1"
        )
    return "\n".join(lines) + "\n"


#: The fixed expression set of the ``expressions`` probe: constants, scaling
#: laws in ``num_nodes``, and iteration-dependent conditionals.
EXPRESSIONS = [
    "2.5e12",
    "1e12 / num_nodes",
    "8e6 * (num_nodes - 1)",
    "1e8 * (0.5 + 2 / (num_nodes + 3))",
    "if(iteration % 5 == 4, 6.4e10, 0)",
    "max(1e9, 4e10 / sqrt(num_nodes)) + 1e6 * log2(num_nodes + 1)",
    "min(num_nodes * 2, 64)",
    "ceil(steps / 4) * 1e11 / num_nodes ^ 0.5",
]

#: Bindings the probe evaluates every expression against.
EXPRESSION_BINDINGS = [
    {"num_nodes": n, "iteration": i, "steps": 40}
    for n in (1, 2, 4, 8, 16, 32, 64, 128)
    for i in range(5)
]


WORKLOADS = {
    "rigid_sched": rigid_sched,
    "malleable_io": malleable_io,
    "cold_cli": cold_cli,
    "campaign_sweep": campaign_sweep,
    "whatif_edit": whatif_edit,
}
