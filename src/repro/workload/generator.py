"""Synthetic workload generation.

The generator produces the workload family the evaluation experiments use:
iterative HPC applications (init read → N x [compute, exchange, optional
checkpoint] → final write) with Poisson arrivals, lognormally distributed
total work, and power-of-two node requests — the standard synthetic stand-in
for production traces.  Every random draw flows from one seed, so a given
(spec, seed) pair is fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf
from typing import TYPE_CHECKING, List

from repro._input import COUNT, FRACTION, GE0, GE1, GT0, INTEGER, NUMBER
from repro.application import ApplicationModel, Phase
from repro.application.tasks import (
    CommPattern,
    CommTask,
    CpuTask,
    PfsReadTask,
    PfsWriteTask,
)
from repro.job import Job, JobClass, JobType
from repro.workload.apportion import largest_remainder
from repro.workload.loader import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - numpy loads when a generator first runs
    import numpy as np


def iterative_application(
    *,
    total_flops: float,
    iterations: int = 10,
    comm_bytes_per_msg: float = 0.0,
    serial_fraction: float | str = 0,
    input_bytes: float = 0.0,
    output_bytes: float = 0.0,
    checkpoint_bytes: float = 0.0,
    checkpoint_every: int = 0,
    data_per_node: float | str = 0,
    name: str = "iterative",
) -> ApplicationModel:
    """Canonical iterative application template.

    Structure: optional PFS read, then ``iterations`` x [evenly distributed
    compute (``total_flops`` split over iterations and nodes), optional
    ring exchange, optional periodic PFS checkpoint], then optional PFS
    write.  Compute uses EVEN distribution so larger allocations genuinely
    speed the job up — the property malleability exploits.
    """
    if total_flops <= 0:
        raise ValueError(f"total_flops must be > 0, got {total_flops}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    phases: List[Phase] = []
    if input_bytes > 0:
        phases.append(
            Phase([PfsReadTask(input_bytes)], name="input", scheduling_point=False)
        )

    solve_tasks: List = [
        CpuTask(
            total_flops / iterations,
            serial_fraction=serial_fraction,
            name="compute",
        )
    ]
    if comm_bytes_per_msg > 0:
        solve_tasks.append(
            CommTask(comm_bytes_per_msg, pattern=CommPattern.RING, name="exchange")
        )
    if checkpoint_bytes > 0 and checkpoint_every > 0:
        solve_tasks.append(
            PfsWriteTask(
                f"if(iteration % {checkpoint_every} == {checkpoint_every - 1}, "
                f"{checkpoint_bytes!r}, 0)",
                name="checkpoint",
            )
        )
    phases.append(Phase(solve_tasks, iterations=iterations, name="solve"))

    if output_bytes > 0:
        phases.append(
            Phase([PfsWriteTask(output_bytes)], name="output", scheduling_point=False)
        )

    return ApplicationModel(phases, data_per_node=data_per_node, name=name)


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic workload.

    The type mix fractions must sum to <= 1; the remainder is rigid.
    """

    num_jobs: int = 100
    #: Mean of the exponential inter-arrival distribution (seconds).
    mean_interarrival: float = 30.0
    #: Node request bounds (requests are powers of two within them).
    min_request: int = 1
    max_request: int = 32
    #: Lognormal job runtime on the *requested* allocation: the generator
    #: draws a target runtime and sizes total work as
    #: ``runtime x request x node_flops`` — runtimes are thus comparable
    #: across job sizes, like real traces.
    mean_runtime: float = 300.0
    runtime_sigma: float = 0.5
    #: Iterations per job (uniform in this inclusive range).
    min_iterations: int = 5
    max_iterations: int = 20
    #: Communication per iteration, bytes per ring message (0 disables).
    comm_bytes: float = 1e7
    #: Amdahl serial fraction of each job's compute (0 = perfect scaling).
    serial_fraction: float = 0.0
    #: I/O sizes as fractions of work (bytes per flop); 0 disables.
    input_bytes_per_flop: float = 0.0
    output_bytes_per_flop: float = 0.0
    #: Type mix.
    malleable_fraction: float = 0.0
    moldable_fraction: float = 0.0
    evolving_fraction: float = 0.0
    #: Bytes of state per node, redistributed on reconfiguration.
    data_per_node: float = 0.0
    #: Walltime = slack x analytic runtime estimate; inf disables walltimes.
    walltime_slack: float = 5.0
    #: Node speed used for the walltime estimate.
    node_flops: float = 1e12
    #: Flexible jobs can shrink to max(request / shrink_factor, 1).
    shrink_factor: int = 4
    #: Flexible jobs can grow to min(request * grow_factor, max_request).
    grow_factor: int = 2
    #: Jobs are attributed to this many users, drawn uniformly.
    num_users: int = 1
    #: Fraction of jobs in the on-demand class (admitted with priority —
    #: and preemption — by hybrid schedulers); the rest are batch.
    ondemand_fraction: float = 0.0
    #: Checkpoint size every job declares (bytes read back from the PFS
    #: on a resumed restart); 0 disables restart I/O accounting.
    checkpoint_bytes: float = 0.0

    def validate(self) -> None:
        if self.num_jobs < 1:
            raise WorkloadError("num_jobs must be >= 1")
        if self.mean_interarrival < 0:
            raise WorkloadError("mean_interarrival must be >= 0")
        if not 1 <= self.min_request <= self.max_request:
            raise WorkloadError("need 1 <= min_request <= max_request")
        mix = self.malleable_fraction + self.moldable_fraction + self.evolving_fraction
        if min(self.malleable_fraction, self.moldable_fraction, self.evolving_fraction) < 0:
            raise WorkloadError("type fractions must be >= 0")
        if mix > 1.0 + 1e-9:
            raise WorkloadError(f"type fractions sum to {mix} > 1")
        if self.min_iterations < 1 or self.max_iterations < self.min_iterations:
            raise WorkloadError("need 1 <= min_iterations <= max_iterations")
        if self.walltime_slack <= 0:
            raise WorkloadError("walltime_slack must be > 0")
        if not 0.0 <= self.ondemand_fraction <= 1.0:
            raise WorkloadError("ondemand_fraction must be within [0, 1]")
        if self.checkpoint_bytes < 0:
            raise WorkloadError("checkpoint_bytes must be >= 0")
        if self.mean_runtime <= 0:
            raise WorkloadError("mean_runtime must be > 0")
        if self.runtime_sigma < 0:
            raise WorkloadError("runtime_sigma must be >= 0")
        if self.num_users < 1:
            raise WorkloadError("num_users must be >= 1")


#: Rows of a scenario's ``workload.generate`` block: a ``seed`` of its own, then
#: every :class:`WorkloadSpec` field under its default; ``>= 0`` unless named
#: here.  Rules across fields are :meth:`WorkloadSpec.validate`'s.
_AT_LEAST = {
    "num_jobs": COUNT,
    "min_request": GE1,
    "max_request": GE1,
    "mean_runtime": GT0,
    "min_iterations": GE1,
    "max_iterations": GE1,
    "walltime_slack": GT0,
    "node_flops": GT0,
    "shrink_factor": GE1,
    "grow_factor": GE1,
    "num_users": GE1,
    "serial_fraction": FRACTION,
    "malleable_fraction": FRACTION,
    "moldable_fraction": FRACTION,
    "evolving_fraction": FRACTION,
    "ondemand_fraction": FRACTION,
}
_GENERATE = (
    ("seed", INTEGER, None, GE0),
    *(
        (f.name, INTEGER if f.type == "int" else NUMBER, f.default, _AT_LEAST.get(f.name, GE0))
        for f in fields(WorkloadSpec)
    ),
)


def generate_workload(
    spec: WorkloadSpec,
    seed: int = 0,
    *,
    rng: np.random.Generator | None = None,
) -> List[Job]:
    """Generate a reproducible job list from ``spec``.

    Returns jobs sorted by submit time with ids 1..num_jobs.  Every draw
    comes from a single injected generator: either ``rng`` (callers that
    fan one master seed out over several generation steps, e.g. the fuzz
    harness) or a fresh ``np.random.default_rng(seed)`` — there is no
    module-global randomness, so (spec, seed) is fully reproducible.
    """
    import numpy as np

    spec.validate()
    if rng is None:
        rng = np.random.default_rng(seed)

    # Arrival times: Poisson process.
    if spec.mean_interarrival > 0:
        gaps = rng.exponential(spec.mean_interarrival, size=spec.num_jobs)
        arrivals = np.cumsum(gaps) - gaps[0]  # first job arrives at t=0
    else:
        arrivals = np.zeros(spec.num_jobs)

    # Node requests: power-of-two sizes, log-uniform within bounds.
    lo = int(np.floor(np.log2(spec.min_request)))
    hi = int(np.floor(np.log2(spec.max_request)))
    exponents = rng.integers(lo, hi + 1, size=spec.num_jobs)
    requests = np.clip(2 ** exponents, spec.min_request, spec.max_request)

    # Work and shape: draw a target runtime, convert to flops on the
    # requested allocation.
    mu = np.log(spec.mean_runtime) - spec.runtime_sigma**2 / 2
    runtimes = rng.lognormal(mu, spec.runtime_sigma, size=spec.num_jobs)
    works = runtimes * requests * spec.node_flops
    iteration_counts = rng.integers(
        spec.min_iterations, spec.max_iterations + 1, size=spec.num_jobs
    )

    # Job types: deterministic assignment by fraction using a shuffled index
    # set (keeps exact fractions rather than binomial noise).  Counts come
    # from largest-remainder apportionment: per-class rounding can
    # oversubscribe num_jobs (3 jobs at 0.5/0.5 round to 2+2), silently
    # truncating the last class via out-of-range slicing.
    order = rng.permutation(spec.num_jobs)
    flexible = (
        spec.malleable_fraction + spec.moldable_fraction + spec.evolving_fraction
    )
    _, n_malleable, n_moldable, n_evolving = largest_remainder(
        (
            max(0.0, 1.0 - flexible),
            spec.malleable_fraction,
            spec.moldable_fraction,
            spec.evolving_fraction,
        ),
        spec.num_jobs,
    )
    types = np.full(spec.num_jobs, 0)  # 0 rigid
    cursor = 0
    for code, count in ((1, n_malleable), (2, n_moldable), (3, n_evolving)):
        types[order[cursor : cursor + count]] = code
        cursor += count
    user_ids = rng.integers(0, spec.num_users, size=spec.num_jobs)
    # Job classes: same exact-fraction scheme, from an independent shuffle
    # so class and type mix freely.  Drawn only when requested, keeping
    # legacy (spec, seed) streams byte-stable.
    ondemand: set = set()
    if spec.ondemand_fraction > 0:
        class_order = rng.permutation(spec.num_jobs)
        _, n_ondemand = largest_remainder(
            (1.0 - spec.ondemand_fraction, spec.ondemand_fraction), spec.num_jobs
        )
        ondemand = {int(i) for i in class_order[:n_ondemand]}
    code_to_type = {
        0: JobType.RIGID,
        1: JobType.MALLEABLE,
        2: JobType.MOLDABLE,
        3: JobType.EVOLVING,
    }

    jobs: List[Job] = []
    for i in range(spec.num_jobs):
        request = int(requests[i])
        work = float(works[i])
        iterations = int(iteration_counts[i])
        job_type = code_to_type[int(types[i])]

        application = iterative_application(
            total_flops=work,
            iterations=iterations,
            comm_bytes_per_msg=spec.comm_bytes,
            serial_fraction=spec.serial_fraction,
            input_bytes=spec.input_bytes_per_flop * work,
            output_bytes=spec.output_bytes_per_flop * work,
            data_per_node=spec.data_per_node,
            name=f"app{i + 1}",
        )

        # Analytic runtime estimate on the requested allocation, used for
        # the walltime limit (and thus for backfilling estimates).
        est_compute = work / (request * spec.node_flops)
        walltime = (
            spec.walltime_slack * max(est_compute, 1.0)
            if spec.walltime_slack < inf
            else inf
        )

        kwargs = dict(
            job_type=job_type,
            submit_time=float(arrivals[i]),
            num_nodes=request,
            walltime=walltime,
            name=f"job{i + 1}",
            user=f"user{int(user_ids[i])}",
        )
        if i in ondemand:
            kwargs["job_class"] = JobClass.ON_DEMAND
        if spec.checkpoint_bytes > 0:
            kwargs["checkpoint_bytes"] = spec.checkpoint_bytes
        if job_type is not JobType.RIGID:
            kwargs["min_nodes"] = max(1, request // spec.shrink_factor)
            kwargs["max_nodes"] = min(
                spec.max_request, max(request * spec.grow_factor, request)
            )
        jobs.append(Job(i + 1, application, **kwargs))

    return jobs
