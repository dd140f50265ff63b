"""ElastiSim reproduction: a batch-system simulator for malleable workloads.

A pure-Python reimplementation of ElastiSim (Özden, Beringer, Mazaheri,
Fard, Wolf — ICPP 2022): a discrete-event batch-system simulator whose
distinguishing feature is first-class support for malleable and evolving
jobs.  See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.

Quickstart
----------
>>> from repro import Simulation, platform_from_dict
>>> from repro.workload import WorkloadSpec, generate_workload
>>> platform = platform_from_dict({
...     "nodes": {"count": 32, "flops": 1e12},
...     "network": {"topology": "star", "bandwidth": 1e10},
...     "pfs": {"read_bw": 1e11, "write_bw": 1e11},
... })
>>> jobs = generate_workload(WorkloadSpec(num_jobs=10), seed=42)
>>> monitor = Simulation(platform, jobs, algorithm="easy").run()
>>> monitor.summary().completed_jobs
10
"""

from repro._input import InputError
from repro.batch import BatchError, BatchSystem, Simulation
from repro.job import Job, JobState, JobType
from repro.monitoring import Monitor
from repro.platform import Platform, load_platform, platform_from_dict
from repro.application import (
    ApplicationModel,
    Phase,
    application_from_dict,
    load_application,
)
from repro.workload import (
    WorkloadSpec,
    generate_workload,
    load_workload,
    workload_from_dict,
)

__version__ = "1.0.0"

__all__ = [
    "ApplicationModel",
    "BatchError",
    "BatchSystem",
    "InputError",
    "Job",
    "JobState",
    "JobType",
    "Monitor",
    "Phase",
    "Platform",
    "Simulation",
    "WorkloadSpec",
    "application_from_dict",
    "generate_workload",
    "load_application",
    "load_platform",
    "load_workload",
    "platform_from_dict",
    "workload_from_dict",
    "__version__",
]
