"""Tests for parallel task groups (overlapped compute/comm/I-O)."""

import pytest

from repro.application import (
    ApplicationError,
    ApplicationModel,
    CommPattern,
    CommTask,
    CpuTask,
    DelayTask,
    EvolvingRequest,
    Phase,
    PfsWriteTask,
    application_from_dict,
    application_to_dict,
)
from repro.batch import Simulation
from repro.job import Job, JobState
from repro.platform import platform_from_dict


def tiny_platform():
    return platform_from_dict(
        {
            "nodes": {"count": 8, "flops": 1e9},
            "network": {
                "topology": "star",
                "bandwidth": 1e9,
                "pfs_bandwidth": 1e12,
            },
            "pfs": {"read_bw": 2e9, "write_bw": 2e9},
        }
    )


def run_one(app, num_nodes=4, **job_kwargs):
    job = Job(1, app, num_nodes=num_nodes, **job_kwargs)
    Simulation(tiny_platform(), [job], algorithm="fcfs").run()
    return job


class TestParallelTiming:
    def test_parallel_takes_max_not_sum(self):
        # cpu: 2 s, write: 1 s → sequential 3 s, parallel 2 s.
        tasks = [CpuTask("8e9"), PfsWriteTask("2e9")]
        seq = run_one(ApplicationModel([Phase(list(tasks))]))
        par = run_one(ApplicationModel([Phase(list(tasks), parallel=True)]))
        assert seq.runtime == pytest.approx(3.0)
        assert par.runtime == pytest.approx(2.0)

    def test_three_way_overlap(self):
        # cpu 2 s | ring comm 1 s | delay 3 s → parallel = 3 s.
        app = ApplicationModel(
            [
                Phase(
                    [
                        CpuTask("8e9"),
                        CommTask("1e9", pattern=CommPattern.RING),
                        DelayTask("3"),
                    ],
                    parallel=True,
                )
            ]
        )
        job = run_one(app)
        assert job.runtime == pytest.approx(3.0)

    def test_parallel_iterations_multiply(self):
        app = ApplicationModel(
            [
                Phase(
                    [CpuTask("8e9"), PfsWriteTask("2e9")],
                    parallel=True,
                    iterations=3,
                )
            ]
        )
        job = run_one(app)
        assert job.runtime == pytest.approx(6.0)

    def test_single_task_parallel_equals_sequential(self):
        seq = run_one(ApplicationModel([Phase([CpuTask("8e9")])]))
        par = run_one(ApplicationModel([Phase([CpuTask("8e9")], parallel=True)]))
        assert seq.runtime == par.runtime


class TestParallelKill:
    def test_walltime_kill_cancels_all_branches(self, platform):
        app = ApplicationModel(
            [
                Phase(
                    [CpuTask("80e9"), PfsWriteTask("40e9"), DelayTask("100")],
                    parallel=True,
                )
            ]
        )
        job = Job(1, app, num_nodes=4, walltime=2.0)
        sim = Simulation(tiny_platform(), [job], algorithm="fcfs")
        sim.run()
        assert job.state is JobState.KILLED
        assert job.end_time == pytest.approx(2.0)
        # No leaked activities in the fair-share model.
        assert sim.batch.model.component_count == 0


class TestValidationAndJson:
    def test_evolving_request_forbidden_in_parallel_group(self):
        with pytest.raises(ApplicationError, match="parallel"):
            Phase([CpuTask(1), EvolvingRequest(2)], parallel=True)

    def test_json_roundtrip_preserves_parallel(self):
        app = ApplicationModel(
            [Phase([CpuTask(1), DelayTask(1)], parallel=True, name="overlap")]
        )
        spec = application_to_dict(app)
        assert spec["phases"][0]["parallel"] is True
        clone = application_from_dict(spec)
        assert clone.phases[0].parallel is True

    def test_default_not_serialized(self):
        app = ApplicationModel([Phase([CpuTask(1)])])
        assert "parallel" not in application_to_dict(app)["phases"][0]
