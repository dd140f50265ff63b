"""Random-but-valid scenario generation from a single seed.

A *scenario* is the plain-dict form :meth:`repro.batch.Simulation.from_spec`
(and the campaign subsystem) consume: ``{"name", "platform", "workload":
{"inline": ...}, "algorithm", "seed", "sim"}``.  Everything is drawn from
one ``random.Random(seed)`` stream, so a scenario is reproducible from its
seed alone and shrinking operates on pure data.

Two deliberate generation constraints keep scenarios *valid* rather than
merely random:

* every job requests at most the machine size, and a drawn power
  corridor always admits at least the widest request (otherwise
  strict-FCFS and corridor-respecting policies legitimately stall, which
  would drown real failures in noise);
* evolving requests are non-blocking (a blocking request under a policy
  that never grants nor denies suspends the job forever — a documented
  scheduler property, not an engine bug).

Magnitude expressions avoid ``job_id`` so the job-relabelling metamorphic
oracle holds by construction; they may use ``num_nodes``, ``iteration``,
and per-job ``arguments``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Algorithms a generated scenario may draw (the shipped policies plus the
#: adversarial random scheduler; see :data:`repro.fuzz.oracles.ORACLES`
#: for which oracles apply to which).
ALGORITHM_POOL = [
    "fcfs",
    "easy",
    "sjf",
    "fairshare",
    "priority-preempt",
    "conservative",
    "moldable",
    "adaptive-moldable",
    "malleable",
    "hybrid-corridor",
]

#: The four reference algorithms CI's fuzz gates run against.
SHIPPED_ALGORITHMS = ["fcfs", "easy", "moldable", "malleable"]


@dataclass(frozen=True)
class FuzzBudget:
    """Size limits for generated scenarios.

    The defaults keep single runs in the low-millisecond range so a fuzz
    campaign of hundreds of scenarios x two engines stays cheap;
    raise them for nightly deep runs.
    """

    max_nodes: int = 16
    max_jobs: int = 6
    max_phases: int = 3
    max_tasks_per_phase: int = 3
    max_iterations: int = 3
    #: Probability that the scenario injects node failures.
    failure_probability: float = 0.3
    #: Probability that the platform declares per-node power draw (and,
    #: more often than not, a corridor on top).
    power_probability: float = 0.35
    #: Probability that the workload mixes in on-demand-class jobs.
    ondemand_probability: float = 0.25


DEFAULT_BUDGET = FuzzBudget()

_FLOPS_MENU = [5e10, 1e11, 4e11, 1e12, 2.5e12]
_BYTES_MENU = [1e6, 5e6, 1e8, 1e9, 5e9]
_BANDWIDTH_MENU = [1e9, 5e9, 1e10, 12.5e9, 1e11]
_COMM_PATTERNS = ["alltoall", "ring", "bcast", "gather", "pairwise"]


def _magnitude(rng: random.Random, base: float) -> Any:
    """A literal or a tame expression evaluating near ``base``.

    Expressions only reference metamorphic-safe variables (``num_nodes``,
    ``iteration``) — never ``job_id``.
    """
    roll = rng.random()
    if roll < 0.55:
        return base
    if roll < 0.7:
        return f"{base!r} / num_nodes"
    if roll < 0.8:
        return f"{base!r} + {base / 4!r} * iteration"
    if roll < 0.9:
        return f"if(iteration % 2 == 0, {base!r}, {base / 2!r})"
    return f"{base!r} * scale"


def _platform_spec(rng: random.Random, budget: FuzzBudget) -> Dict[str, Any]:
    count = rng.randint(2, budget.max_nodes)
    bandwidth = rng.choice(_BANDWIDTH_MENU)
    network: Dict[str, Any] = {"topology": "star", "bandwidth": bandwidth}
    if rng.random() < 0.5:
        network["latency"] = rng.choice([1e-6, 5e-6, 1e-5])

    roll = rng.random()
    if roll < 0.15:
        network["topology"] = "fat_tree"
        network["arity"] = rng.choice([2, 4])
    elif roll < 0.25:
        dims = [2, max(1, count // 2)]
        count = dims[0] * dims[1]
        network["topology"] = "torus"
        network["dims"] = dims
    elif roll < 0.32:
        per_router = rng.choice([1, 2])
        routers = 2
        groups = max(1, count // (routers * per_router))
        count = groups * routers * per_router
        network["topology"] = "dragonfly"
        network["groups"] = groups
        network["routers_per_group"] = routers
        network["nodes_per_router"] = per_router

    spec: Dict[str, Any] = {
        "name": "fuzz-cluster",
        "nodes": {"count": count, "flops": rng.choice([1e11, 1e12])},
        "network": network,
    }
    if rng.random() < 0.3:
        spec["nodes"]["gpus"] = rng.choice([1, 2])
        spec["nodes"]["gpu_flops"] = rng.choice([5e11, 2e12])
    if rng.random() < 0.7:
        read_bw = rng.choice(_BANDWIDTH_MENU)
        # Equal PFS-link and PFS-service bandwidths produce exact rate
        # ties in the max-min solve — the tie-breaking corner the
        # differential oracle exists for.
        network["pfs_bandwidth"] = read_bw if rng.random() < 0.5 else bandwidth
        spec["pfs"] = {"read_bw": read_bw, "write_bw": rng.choice(_BANDWIDTH_MENU)}
    if rng.random() < 0.3:
        spec["burst_buffer"] = {
            "read_bw": rng.choice([1e9, 5e9]),
            "write_bw": rng.choice([1e9, 2e9]),
        }
    return spec


def _power_spec(
    rng: random.Random,
    platform: Dict[str, Any],
    jobs: List[Dict[str, Any]],
    budget: FuzzBudget,
) -> None:
    """Tail draw: maybe declare per-node power, and a corridor on top.

    The corridor admits ``m`` simultaneously-busy nodes with ``m`` at
    least the widest request in the workload, so every job stays
    individually startable on an idle machine and corridor-respecting
    policies cannot stall by construction.
    """
    if rng.random() >= budget.power_probability:
        return
    count = platform["nodes"]["count"]
    idle = rng.choice([50.0, 100.0, 150.0])
    peak = idle + rng.choice([100.0, 200.0, 350.0])
    power: Dict[str, Any] = {"idle_watts": idle, "peak_watts": peak}
    if rng.random() < 0.6:
        widest = max(job["num_nodes"] for job in jobs)
        m = rng.randint(max(widest, count // 2), count)
        power["corridor_watts"] = idle * count + (peak - idle) * m
    platform["power"] = power


def _hybrid_spec(
    rng: random.Random,
    platform: Dict[str, Any],
    jobs: List[Dict[str, Any]],
    sim: Dict[str, Any],
    budget: FuzzBudget,
) -> None:
    """Tail draw: sprinkle on-demand job classes and checkpoint sizes."""
    fraction = 0.0
    if rng.random() < budget.ondemand_probability:
        fraction = rng.choice([0.2, 0.4, 0.6])
    for job in jobs:
        if rng.random() < fraction:
            job["class"] = "on-demand"
        # Restart I/O is read back from the PFS; without one the engine
        # (correctly) refuses to model it, so only draw it when present.
        if "pfs" in platform and rng.random() < 0.4:
            job["checkpoint_bytes"] = rng.choice([1e8, 1e9, 5e9])
    # On-demand admissions preempt batch jobs; flip checkpoint/restart on
    # often enough that the preemption-cost (restart I/O) path gets fuzzed.
    if any(job.get("class") == "on-demand" for job in jobs):
        if "checkpoint_restart" not in sim and rng.random() < 0.5:
            sim["checkpoint_restart"] = True


def _task_spec(
    rng: random.Random,
    platform: Dict[str, Any],
    *,
    evolving_bounds: Optional[tuple] = None,
    num_nodes: int = 1,
) -> Dict[str, Any]:
    kinds = ["cpu", "cpu", "delay"]
    if num_nodes > 1:
        kinds += ["comm", "comm"]
    if "pfs" in platform:
        kinds += ["pfs_read", "pfs_write"]
    if "burst_buffer" in platform:
        kinds += ["bb_read", "bb_write"]
    if platform["nodes"].get("gpus"):
        kinds.append("gpu")
    if evolving_bounds is not None:
        kinds.append("evolving_request")
    kind = rng.choice(kinds)

    if kind in ("cpu", "gpu"):
        spec: Dict[str, Any] = {
            "type": kind,
            "flops": _magnitude(rng, rng.choice(_FLOPS_MENU)),
        }
        if rng.random() < 0.4:
            spec["distribution"] = "per_node"
        if kind == "cpu" and rng.random() < 0.3:
            spec["serial_fraction"] = rng.choice([0.05, 0.1, 0.25])
        return spec
    if kind == "comm":
        return {
            "type": "comm",
            "bytes": _magnitude(rng, rng.choice(_BYTES_MENU[:3])),
            "pattern": rng.choice(_COMM_PATTERNS),
        }
    if kind in ("pfs_read", "pfs_write", "bb_read", "bb_write"):
        spec = {"type": kind, "bytes": _magnitude(rng, rng.choice(_BYTES_MENU))}
        if rng.random() < 0.4:
            spec["distribution"] = "per_node"
        return spec
    if kind == "delay":
        return {"type": "delay", "seconds": rng.choice([0.5, 1.0, 2.5])}
    # evolving_request: ask anywhere inside the job's bounds, non-blocking
    # (see module docstring).
    lo, hi = evolving_bounds
    return {"type": "evolving_request", "num_nodes": rng.randint(lo, hi)}


def _application_spec(
    rng: random.Random,
    platform: Dict[str, Any],
    budget: FuzzBudget,
    *,
    evolving_bounds: Optional[tuple],
    num_nodes: int,
) -> Dict[str, Any]:
    phases: List[Dict[str, Any]] = []
    num_phases = rng.randint(1, budget.max_phases)
    for p in range(num_phases):
        num_tasks = rng.randint(1, budget.max_tasks_per_phase)
        tasks = [
            _task_spec(
                rng,
                platform,
                evolving_bounds=evolving_bounds,
                num_nodes=num_nodes,
            )
            for _ in range(num_tasks)
        ]
        phase: Dict[str, Any] = {"tasks": tasks, "name": f"phase{p}"}
        if rng.random() < 0.6:
            phase["iterations"] = rng.randint(1, budget.max_iterations)
        if rng.random() < 0.15:
            phase["scheduling_point"] = False
        if (
            rng.random() < 0.2
            and len(tasks) > 1
            and all(t["type"] != "evolving_request" for t in tasks)
        ):
            phase["parallel"] = True
        phases.append(phase)
    app: Dict[str, Any] = {"name": "fuzz-app", "phases": phases}
    if rng.random() < 0.3:
        app["data_per_node"] = rng.choice([1e6, 1e7, 1e8])
    return app


def _job_specs(
    rng: random.Random, platform: Dict[str, Any], budget: FuzzBudget
) -> List[Dict[str, Any]]:
    count = platform["nodes"]["count"]
    num_jobs = rng.randint(1, budget.max_jobs)
    jobs: List[Dict[str, Any]] = []
    submit = 0.0
    for jid in range(1, num_jobs + 1):
        if rng.random() < 0.75:
            submit += round(rng.uniform(0.5, 25.0), 3)
        # else: same-instant submission burst

        job_type = rng.choice(
            ["rigid", "rigid", "moldable", "malleable", "malleable", "evolving"]
        )
        request = rng.randint(1, count)
        job: Dict[str, Any] = {
            "id": jid,
            "type": job_type,
            "submit_time": submit,
            "num_nodes": request,
        }
        evolving_bounds = None
        if job_type != "rigid":
            job["min_nodes"] = rng.randint(1, request)
            job["max_nodes"] = rng.randint(request, count)
            if job_type == "evolving":
                evolving_bounds = (job["min_nodes"], job["max_nodes"])
        if rng.random() < 0.3:
            job["walltime"] = round(rng.uniform(40.0, 400.0), 3)
        if rng.random() < 0.3:
            job["priority"] = rng.randint(0, 3)
        job["user"] = f"user{rng.randint(0, 2)}"
        job["application"] = _application_spec(
            rng,
            platform,
            budget,
            evolving_bounds=evolving_bounds,
            num_nodes=request,
        )
        job["arguments"] = {"scale": rng.choice([1, 2, 4])}
        jobs.append(job)
    return jobs


def _sim_spec(
    rng: random.Random, platform: Dict[str, Any], budget: FuzzBudget
) -> Dict[str, Any]:
    sim: Dict[str, Any] = {}
    if rng.random() < 0.3:
        sim["invocation_interval"] = rng.choice([5.0, 12.5, 30.0])
    if rng.random() < budget.failure_probability:
        count = platform["nodes"]["count"]
        trace = []
        for _ in range(rng.randint(1, 2)):
            trace.append(
                {
                    "time": round(rng.uniform(1.0, 120.0), 3),
                    "node": rng.randrange(count),
                    "downtime": round(rng.uniform(5.0, 60.0), 3),
                }
            )
        trace.sort(key=lambda f: (f["time"], f["node"]))
        sim["failures"] = {"trace": trace}
        if rng.random() < 0.5:
            sim["requeue_on_failure"] = True
            sim["max_requeues"] = rng.randint(1, 2)
            if rng.random() < 0.5:
                sim["checkpoint_restart"] = True
    return sim


def generate_scenario(
    seed: int,
    *,
    algorithm: Optional[str] = None,
    budget: FuzzBudget = DEFAULT_BUDGET,
    validate: bool = True,
) -> Dict[str, Any]:
    """Generate one scenario dict from ``seed``.

    ``algorithm`` pins the scheduler (the fuzz driver sweeps each scenario
    over several); None draws one from :data:`ALGORITHM_POOL`, with the
    adversarial ``random:<seed>`` scheduler mixed in.  With ``validate``
    (the default) the workload and platform are round-tripped through
    their loaders so generator bugs surface here, not inside an oracle.
    """
    rng = random.Random(seed)
    platform = _platform_spec(rng, budget)
    jobs = _job_specs(rng, platform, budget)
    sim = _sim_spec(rng, platform, budget)
    # The scheduler draws happen whether or not ``algorithm`` is pinned,
    # so pinning never shifts the stream feeding the rest of the scenario.
    pool = [name for name in ALGORITHM_POOL if name != "hybrid-corridor"]
    drawn = rng.choice(pool + [f"random:{seed}"])
    # Tail draws: every hybrid/power axis comes *after* the legacy stream
    # (and hybrid-corridor replaces the drawn scheduler only here), so a
    # given seed's base scenario is stable across generator versions and
    # committed reproducer seeds keep meaning what they meant.
    _hybrid_spec(rng, platform, jobs, sim, budget)
    _power_spec(rng, platform, jobs, budget)
    if rng.random() < 0.1:
        drawn = "hybrid-corridor"
    if algorithm is None:
        algorithm = drawn
    scenario = {
        "name": f"fuzz-{seed}",
        "platform": platform,
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": algorithm,
        "seed": int(seed),
        "sim": sim,
    }
    if validate:
        validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Dict[str, Any]) -> None:
    """Raise if the scenario's platform or workload do not load.

    Used by the generator (fail fast) and the shrinker (reject reduction
    candidates that leave the valid-input space instead of reporting them
    as 'still failing').
    """
    from repro.platform import platform_from_dict
    from repro.workload import workload_from_dict

    platform = platform_from_dict(scenario["platform"])
    jobs = workload_from_dict(scenario["workload"]["inline"])
    for job in jobs:
        if job.min_nodes > platform.num_nodes:
            raise ValueError(
                f"job {job.jid} needs {job.min_nodes} nodes, "
                f"machine has {platform.num_nodes}"
            )
    for failure in scenario.get("sim", {}).get("failures", {}).get("trace", []):
        if failure["node"] >= platform.num_nodes:
            raise ValueError(
                f"failure on node {failure['node']} outside machine "
                f"of {platform.num_nodes}"
            )
