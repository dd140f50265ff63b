"""Integration tests: batch system + engine + schedulers end to end."""

import pytest

from repro.batch import BatchError, Simulation
from repro.job import JobError, JobState
from repro.scheduler import SchedulerError

from tests.batch.conftest import make_job


class TestBasicLifecycle:
    def test_single_job_runs_to_completion(self, platform):
        # 8e9 flops on 4 nodes x 1e9 → 2 s.
        job = make_job(1)
        monitor = Simulation(platform, [job], algorithm="fcfs").run()
        assert job.state is JobState.COMPLETED
        assert job.start_time == 0.0
        assert job.end_time == pytest.approx(2.0)
        assert monitor.makespan() == pytest.approx(2.0)

    def test_two_jobs_fit_together(self, platform):
        jobs = [make_job(1), make_job(2)]  # 4 + 4 = 8 nodes
        monitor = Simulation(platform, jobs, algorithm="fcfs").run()
        assert all(j.start_time == 0.0 for j in jobs)
        assert monitor.makespan() == pytest.approx(2.0)

    def test_queueing_when_machine_full(self, platform):
        jobs = [make_job(1, num_nodes=8), make_job(2, num_nodes=8)]
        Simulation(platform, jobs, algorithm="fcfs").run()
        # Job 1: 8e9 over 8 nodes → 1 s; job 2 starts at 1 s.
        assert jobs[0].end_time == pytest.approx(1.0)
        assert jobs[1].start_time == pytest.approx(1.0)
        assert jobs[1].wait_time == pytest.approx(1.0)

    def test_submit_times_respected(self, platform):
        jobs = [make_job(1, submit_time=5.0)]
        Simulation(platform, jobs, algorithm="fcfs").run()
        assert jobs[0].start_time == pytest.approx(5.0)
        assert jobs[0].wait_time == 0.0

    def test_nodes_freed_after_completion(self, platform):
        job = make_job(1, num_nodes=8)
        Simulation(platform, [job], algorithm="fcfs").run()
        assert platform.num_free_nodes() == 8

    def test_all_jobs_in_records(self, platform):
        jobs = [make_job(i) for i in range(1, 6)]
        monitor = Simulation(platform, jobs, algorithm="fcfs").run()
        records = monitor.job_records()
        assert len(records) == 5
        assert all(r["state"] == "completed" for r in records)


class TestWalltime:
    def test_job_killed_at_walltime(self, platform):
        # Needs 2 s but walltime is 1 s.
        job = make_job(1, walltime=1.0)
        Simulation(platform, [job], algorithm="fcfs").run()
        assert job.state is JobState.KILLED
        assert job.kill_reason == "walltime"
        assert job.end_time == pytest.approx(1.0)

    def test_job_finishing_before_walltime_not_killed(self, platform):
        job = make_job(1, walltime=100.0)
        Simulation(platform, [job], algorithm="fcfs").run()
        assert job.state is JobState.COMPLETED

    def test_killed_job_frees_nodes_for_queue(self, platform):
        jobs = [
            make_job(1, num_nodes=8, walltime=1.0),  # killed at t=1
            make_job(2, num_nodes=8),
        ]
        Simulation(platform, jobs, algorithm="fcfs").run()
        assert jobs[0].state is JobState.KILLED
        assert jobs[1].start_time == pytest.approx(1.0)
        assert jobs[1].state is JobState.COMPLETED


class TestValidationErrors:
    def test_empty_workload_rejected(self, platform):
        with pytest.raises(BatchError, match="No jobs"):
            Simulation(platform, [], algorithm="fcfs")

    def test_duplicate_ids_rejected(self, platform):
        with pytest.raises(BatchError, match="Duplicate"):
            Simulation(platform, [make_job(1), make_job(1)], algorithm="fcfs")

    def test_oversized_job_rejected_at_setup(self, platform):
        with pytest.raises(JobError, match="at least"):
            Simulation(platform, [make_job(1, num_nodes=16)], algorithm="fcfs")

    def test_unknown_algorithm_name(self, platform):
        with pytest.raises(SchedulerError, match="Unknown algorithm"):
            Simulation(platform, [make_job(1)], algorithm="quantum")

    def test_bad_invocation_interval(self, platform):
        with pytest.raises(BatchError, match="invocation_interval"):
            Simulation(
                platform, [make_job(1)], algorithm="fcfs", invocation_interval=0
            )


class TestMonitorIntegration:
    def test_utilization_during_run(self, platform):
        # One 8-node job for 1 s on an 8-node machine → 100% utilization.
        job = make_job(1, num_nodes=8)
        monitor = Simulation(platform, [job], algorithm="fcfs").run()
        assert monitor.mean_utilization() == pytest.approx(1.0)

    def test_half_utilization(self, platform):
        job = make_job(1, num_nodes=4, total_flops=4e9)  # 1 s on 4 of 8 nodes
        monitor = Simulation(platform, [job], algorithm="fcfs").run()
        assert monitor.mean_utilization() == pytest.approx(0.5)

    def test_summary_counts(self, platform):
        jobs = [make_job(1), make_job(2, walltime=0.5)]
        monitor = Simulation(platform, jobs, algorithm="fcfs").run()
        summary = monitor.summary()
        assert summary.completed_jobs == 1
        assert summary.killed_jobs == 1

    def test_allocation_segments_recorded(self, platform):
        job = make_job(1)
        monitor = Simulation(platform, [job], algorithm="fcfs").run()
        segments = monitor.segments(1)
        assert len(segments) == 1
        assert segments[0].start == 0.0
        assert segments[0].end == pytest.approx(2.0)
        assert len(segments[0].node_indices) == 4

    def test_event_log_order(self, platform):
        jobs = [make_job(1, num_nodes=8), make_job(2, num_nodes=8)]
        monitor = Simulation(platform, jobs, algorithm="fcfs").run()
        kinds = [(kind, jid) for _, kind, jid, _ in monitor.events]
        # Job 1 starts inside its own submit invocation, before job 2's
        # submitter process runs at the same instant.
        assert kinds == [
            ("submit", 1),
            ("start", 1),
            ("submit", 2),
            ("complete", 1),
            ("start", 2),
            ("complete", 2),
        ]


class TestPeriodicInvocation:
    def test_periodic_invocations_happen(self, platform):
        sim = Simulation(
            platform,
            [make_job(1, total_flops=80e9, num_nodes=8)],  # 10 s
            algorithm="fcfs",
            invocation_interval=1.0,
        )
        sim.run()
        # ~10 periodic + submit + completion.
        assert sim.batch.invocations >= 10

    def test_event_driven_only_has_few_invocations(self, platform):
        sim = Simulation(
            platform,
            [make_job(1, total_flops=80e9, num_nodes=8)],
            algorithm="fcfs",
        )
        sim.run()
        # submit + end-of-phase scheduling point + completion.
        assert sim.batch.invocations == 3


class TestStuckDetection:
    def test_stalled_workload_raises_with_diagnostics(self, platform):
        # A scheduler that never starts anything.
        from repro.scheduler import Algorithm

        class DoNothing(Algorithm):
            name = "noop"

        with pytest.raises(BatchError, match="stalled"):
            Simulation(platform, [make_job(1)], algorithm=DoNothing()).run()

    def test_run_until_returns_partial_state(self, platform):
        job = make_job(1, total_flops=80e9, num_nodes=8)  # 10 s
        sim = Simulation(platform, [job], algorithm="fcfs")
        monitor = sim.run(until=5.0)
        assert job.state is JobState.RUNNING
        assert monitor.makespan() == 0.0  # nothing finished yet


class TestWatchdogCleanup:
    """Regression: finishing a job must defuse its walltime timer.

    The watchdog used to leave its Timeout live in the event heap after
    ``done`` fired, so running the environment to exhaustion dragged
    ``env.now`` out to the (never-enforced) walltime expiry and counted
    the stale timer as a processed event.
    """

    def test_clock_stops_at_last_job_end(self, platform):
        # 2 s of work, but a 1-hour walltime: the stale timer would sit
        # at t=3600 without the cancel.
        jobs = [make_job(1, walltime=3600.0), make_job(2, walltime=7200.0)]
        sim = Simulation(platform, jobs, algorithm="fcfs")
        sim.run()
        last_end = max(j.end_time for j in jobs)
        # Drain the heap: besides same-instant leftovers queued behind the
        # all_done stop, only cancelled timers remain — and those must not
        # advance the clock to their 3600/7200 s expiries.
        sim.env.run()
        assert sim.env.now == pytest.approx(last_end)

    def test_walltime_kill_still_enforced(self, platform):
        # The cancel path must not defuse timers of jobs that do overrun.
        job = make_job(1, walltime=1.0)  # needs 2 s
        sim = Simulation(platform, [job], algorithm="fcfs")
        sim.run()
        assert job.state is JobState.KILLED
        assert job.kill_reason == "walltime"
        assert job.end_time == pytest.approx(1.0)

    def test_cancel_rejects_subscribed_event(self, platform):
        from repro.des import Environment
        from repro.des.exceptions import SimulationError

        env = Environment()
        timer = env.timeout(5.0)

        def waiter():
            yield timer

        env.process(waiter())
        env.run(until=1.0)
        with pytest.raises(SimulationError, match="subscriber"):
            timer.cancel()
