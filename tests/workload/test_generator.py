"""Tests for the synthetic workload generator."""

import pytest

from repro.application import CommTask, CpuTask, PfsReadTask, PfsWriteTask
from repro.job import JobType
from repro.workload import (
    WorkloadError,
    WorkloadSpec,
    generate_workload,
    iterative_application,
)


class TestIterativeApplication:
    def test_minimal_compute_only(self):
        app = iterative_application(total_flops=1e12, iterations=5)
        assert len(app.phases) == 1
        assert app.phases[0].num_iterations({}) == 5
        assert isinstance(app.phases[0].tasks[0], CpuTask)

    def test_io_phases_added_when_requested(self):
        app = iterative_application(
            total_flops=1e12,
            input_bytes=1e9,
            output_bytes=2e9,
        )
        assert [p.name for p in app.phases] == ["input", "solve", "output"]
        assert isinstance(app.phases[0].tasks[0], PfsReadTask)
        assert isinstance(app.phases[2].tasks[0], PfsWriteTask)

    def test_comm_task_included(self):
        app = iterative_application(total_flops=1e12, comm_bytes_per_msg=1e6)
        kinds = [type(t) for t in app.phases[0].tasks]
        assert CommTask in kinds

    def test_checkpoint_expression_periodic(self):
        app = iterative_application(
            total_flops=1e12,
            iterations=10,
            checkpoint_bytes=1e9,
            checkpoint_every=5,
        )
        ckpt = app.phases[0].tasks[-1]
        # Fires on iterations 4 and 9 (0-based, every 5th).
        assert ckpt.bytes_per_node({"iteration": 4}, 1) == 1e9
        assert ckpt.bytes_per_node({"iteration": 3}, 1) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            iterative_application(total_flops=0)
        with pytest.raises(ValueError):
            iterative_application(total_flops=1, iterations=0)

    def test_io_phases_are_not_scheduling_points(self):
        app = iterative_application(
            total_flops=1e12, input_bytes=1e9, output_bytes=1e9
        )
        assert app.phases[0].scheduling_point is False
        assert app.phases[1].scheduling_point is True
        assert app.phases[2].scheduling_point is False


class TestGenerateWorkload:
    def test_reproducible_for_same_seed(self):
        spec = WorkloadSpec(num_jobs=20)
        a = generate_workload(spec, seed=7)
        b = generate_workload(spec, seed=7)
        assert [j.submit_time for j in a] == [j.submit_time for j in b]
        assert [j.num_nodes for j in a] == [j.num_nodes for j in b]
        assert [j.type for j in a] == [j.type for j in b]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(num_jobs=20)
        a = generate_workload(spec, seed=1)
        b = generate_workload(spec, seed=2)
        assert [j.submit_time for j in a] != [j.submit_time for j in b]

    def test_job_count_and_ids(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=15), seed=0)
        assert len(jobs) == 15
        assert [j.jid for j in jobs] == list(range(1, 16))

    def test_first_arrival_at_zero_and_sorted(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=30), seed=3)
        times = [j.submit_time for j in jobs]
        assert times[0] == 0.0
        assert times == sorted(times)

    def test_requests_are_powers_of_two_in_bounds(self):
        spec = WorkloadSpec(num_jobs=50, min_request=2, max_request=16)
        jobs = generate_workload(spec, seed=0)
        for job in jobs:
            assert 2 <= job.num_nodes <= 16
            assert job.num_nodes & (job.num_nodes - 1) == 0

    def test_type_mix_exact_fractions(self):
        spec = WorkloadSpec(
            num_jobs=40,
            malleable_fraction=0.5,
            moldable_fraction=0.25,
            evolving_fraction=0.25,
        )
        jobs = generate_workload(spec, seed=0)
        counts = {t: sum(1 for j in jobs if j.type is t) for t in JobType}
        assert counts[JobType.MALLEABLE] == 20
        assert counts[JobType.MOLDABLE] == 10
        assert counts[JobType.EVOLVING] == 10
        assert counts[JobType.RIGID] == 0

    def test_all_rigid_by_default(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=10), seed=0)
        assert all(j.type is JobType.RIGID for j in jobs)

    def test_ondemand_fraction_exact_and_independent_of_type_mix(self):
        from repro.job import JobClass

        spec = WorkloadSpec(
            num_jobs=40, malleable_fraction=0.5, ondemand_fraction=0.25
        )
        jobs = generate_workload(spec, seed=0)
        ondemand = [j for j in jobs if j.job_class is JobClass.ON_DEMAND]
        assert len(ondemand) == 10
        # Class cuts across the type mix rather than tracking it.
        assert {j.type for j in jobs if j.job_class is JobClass.ON_DEMAND} >= {
            JobType.RIGID,
            JobType.MALLEABLE,
        }

    def test_ondemand_draw_leaves_legacy_stream_untouched(self):
        baseline = generate_workload(WorkloadSpec(num_jobs=20), seed=7)
        classed = generate_workload(
            WorkloadSpec(num_jobs=20, ondemand_fraction=0.5), seed=7
        )
        assert [j.submit_time for j in baseline] == [
            j.submit_time for j in classed
        ]
        assert [j.user for j in baseline] == [j.user for j in classed]

    def test_checkpoint_bytes_applied_to_every_job(self):
        jobs = generate_workload(
            WorkloadSpec(num_jobs=5, checkpoint_bytes=2e9), seed=0
        )
        assert all(j.checkpoint_bytes == 2e9 for j in jobs)

    def test_class_spec_validation(self):
        import pytest

        with pytest.raises(WorkloadError, match="ondemand_fraction"):
            WorkloadSpec(num_jobs=5, ondemand_fraction=1.5).validate()
        with pytest.raises(WorkloadError, match="checkpoint_bytes"):
            WorkloadSpec(num_jobs=5, checkpoint_bytes=-1.0).validate()

    def test_type_counts_never_oversubscribe(self):
        # Regression: independent int(round(...)) per class turned 3 jobs
        # at 0.5/0.5 into 2 malleable + 2 moldable, silently truncating
        # whichever class was assigned last.  Largest-remainder counts
        # must cover every job exactly once.
        spec = WorkloadSpec(num_jobs=3, malleable_fraction=0.5, moldable_fraction=0.5)
        jobs = generate_workload(spec, seed=0)
        counts = {t: sum(1 for j in jobs if j.type is t) for t in JobType}
        assert len(jobs) == 3
        assert counts[JobType.RIGID] == 0
        assert sorted([counts[JobType.MALLEABLE], counts[JobType.MOLDABLE]]) == [1, 2]

    def test_type_counts_within_one_of_exact_share(self):
        spec = WorkloadSpec(
            num_jobs=7,
            malleable_fraction=0.3,
            moldable_fraction=0.3,
            evolving_fraction=0.3,
        )
        jobs = generate_workload(spec, seed=1)
        counts = {t: sum(1 for j in jobs if j.type is t) for t in JobType}
        assert sum(counts.values()) == 7
        for job_type in (JobType.MALLEABLE, JobType.MOLDABLE, JobType.EVOLVING):
            assert 0.3 * 7 - 1 < counts[job_type] < 0.3 * 7 + 1

    def test_flexible_bounds_derived_from_request(self):
        spec = WorkloadSpec(
            num_jobs=20,
            malleable_fraction=1.0,
            min_request=4,
            max_request=32,
            shrink_factor=4,
            grow_factor=2,
        )
        jobs = generate_workload(spec, seed=0)
        for job in jobs:
            assert job.min_nodes == max(1, job.num_nodes // 4)
            assert job.max_nodes == min(32, job.num_nodes * 2)

    def test_walltime_scales_with_work_and_slack(self):
        spec = WorkloadSpec(num_jobs=10, walltime_slack=5.0, node_flops=1e12)
        jobs = generate_workload(spec, seed=0)
        for job in jobs:
            cpu = job.application.phases[0].tasks[0]
            iterations = job.application.phases[0].num_iterations({})
            total_flops = cpu.flops.evaluate({}) * iterations
            est = total_flops / (job.num_nodes * 1e12)
            assert job.walltime == pytest.approx(5.0 * max(est, 1.0))

    def test_validation_errors(self):
        with pytest.raises(WorkloadError):
            generate_workload(WorkloadSpec(num_jobs=0))
        with pytest.raises(WorkloadError):
            generate_workload(WorkloadSpec(malleable_fraction=0.8, moldable_fraction=0.5))
        with pytest.raises(WorkloadError):
            generate_workload(WorkloadSpec(min_request=8, max_request=4))
        with pytest.raises(WorkloadError):
            generate_workload(WorkloadSpec(walltime_slack=0))

    def test_zero_interarrival_means_batch_arrival(self):
        jobs = generate_workload(
            WorkloadSpec(num_jobs=5, mean_interarrival=0.0), seed=0
        )
        assert all(j.submit_time == 0.0 for j in jobs)

    def test_workload_runs_end_to_end(self):
        """Generated workloads must actually simulate."""
        from repro import Simulation, platform_from_dict

        platform = platform_from_dict(
            {
                "nodes": {"count": 32, "flops": 1e12},
                "network": {"topology": "star", "bandwidth": 1e10,
                            "pfs_bandwidth": 1e11},
                "pfs": {"read_bw": 1e11, "write_bw": 1e11},
            }
        )
        spec = WorkloadSpec(num_jobs=10, max_request=32, malleable_fraction=0.5)
        jobs = generate_workload(spec, seed=11)
        monitor = Simulation(platform, jobs, algorithm="malleable").run()
        summary = monitor.summary()
        assert summary.completed_jobs + summary.killed_jobs == 10
