"""Tests for node-failure injection."""

import pytest

from repro import Simulation
from repro.failures import Failure, FailureError, generate_failures
from repro.job import JobState

from tests.batch.conftest import make_job


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(FailureError):
            Failure(time=-1, node_index=0, downtime=1)
        with pytest.raises(FailureError):
            Failure(time=0, node_index=-1, downtime=1)
        with pytest.raises(FailureError):
            Failure(time=0, node_index=0, downtime=0)

    def test_generator_reproducible(self):
        a = generate_failures(num_nodes=16, horizon=1e5, mtbf=1e4, mean_repair=100, seed=3)
        b = generate_failures(num_nodes=16, horizon=1e5, mtbf=1e4, mean_repair=100, seed=3)
        assert a == b

    def test_generator_sorted_and_within_horizon(self):
        failures = generate_failures(
            num_nodes=8, horizon=1e4, mtbf=2e3, mean_repair=50, seed=1
        )
        times = [f.time for f in failures]
        assert times == sorted(times)
        assert all(0 <= f.time < 1e4 for f in failures)
        assert all(0 <= f.node_index < 8 for f in failures)

    def test_generator_validation(self):
        with pytest.raises(FailureError):
            generate_failures(num_nodes=0, horizon=1, mtbf=1, mean_repair=1)
        with pytest.raises(FailureError):
            generate_failures(num_nodes=1, horizon=0, mtbf=1, mean_repair=1)
        with pytest.raises(FailureError):
            generate_failures(num_nodes=1, horizon=1, mtbf=0, mean_repair=1)
        with pytest.raises(FailureError):
            generate_failures(num_nodes=1, horizon=1, mtbf=1, mean_repair=0)

    def test_per_node_failures_never_overlap(self):
        # A node that is down cannot fail again: consecutive faults on one
        # node must be separated by at least the repair time.
        failures = generate_failures(
            num_nodes=4, horizon=1e5, mtbf=500, mean_repair=200, seed=7
        )
        by_node = {}
        for f in failures:
            by_node.setdefault(f.node_index, []).append(f)
        assert len(failures) > 20  # dense enough to be a real check
        for node_failures in by_node.values():
            for prev, nxt in zip(node_failures, node_failures[1:]):
                assert nxt.time >= prev.time + prev.downtime

    def test_downtime_has_a_positive_floor(self):
        # Exponential draws can be arbitrarily close to 0; the Failure
        # validator rejects non-positive downtimes, so the generator must
        # clamp.  mean_repair=1e-12 makes every raw draw effectively 0.
        failures = generate_failures(
            num_nodes=2, horizon=1e4, mtbf=100, mean_repair=1e-12, seed=0
        )
        assert failures
        assert all(f.downtime >= 1e-6 for f in failures)


class TestFailureInjection:
    def test_failure_kills_running_job(self, platform):
        job = make_job(1, total_flops=80e9, num_nodes=8)  # 10 s
        monitor = Simulation(
            platform,
            [job],
            algorithm="fcfs",
            failures=[Failure(time=3.0, node_index=2, downtime=100.0)],
        ).run()
        assert job.state is JobState.KILLED
        assert job.kill_reason == "node_failure"
        assert job.end_time == pytest.approx(3.0)
        assert (3.0, "fail", 2) in monitor.node_events

    def test_failed_node_not_rescheduled_until_repair(self, platform):
        # Job 1 dies at t=1 on the failed node; job 2 (8 nodes) cannot start
        # until the node repairs at t=5.
        jobs = [
            make_job(1, total_flops=80e9, num_nodes=8),
            make_job(2, total_flops=8e9, num_nodes=8, submit_time=0.5),
        ]
        Simulation(
            platform,
            jobs,
            algorithm="fcfs",
            failures=[Failure(time=1.0, node_index=0, downtime=4.0)],
        ).run()
        assert jobs[0].state is JobState.KILLED
        assert jobs[1].start_time == pytest.approx(5.0)  # at repair
        assert jobs[1].state is JobState.COMPLETED

    def test_failure_on_free_node_kills_nothing(self, platform):
        job = make_job(1, total_flops=8e9, num_nodes=4)  # uses nodes 0-3
        monitor = Simulation(
            platform,
            [job],
            algorithm="fcfs",
            failures=[Failure(time=0.5, node_index=7, downtime=10.0)],
        ).run()
        assert job.state is JobState.COMPLETED
        assert (0.5, "fail", 7) in monitor.node_events

    def test_smaller_jobs_route_around_failed_node(self, platform):
        # Node 0 goes down before the job submits; the 7-node job starts on
        # nodes 1..7 instead.
        job = make_job(1, total_flops=7e9, num_nodes=7, submit_time=0.5)
        Simulation(
            platform,
            [job],
            algorithm="fcfs",
            failures=[Failure(time=0.1, node_index=0, downtime=100.0)],
        ).run(until=5.0)
        assert job.state is JobState.COMPLETED
        assert 0 not in {n.index for n in job.assigned_nodes}

    def test_repair_event_recorded(self, platform):
        job = make_job(1, total_flops=8e9, num_nodes=4)
        monitor = Simulation(
            platform,
            [job],
            algorithm="fcfs",
            failures=[Failure(time=0.1, node_index=7, downtime=0.5)],
        ).run()
        assert (pytest.approx(0.6), "repair", 7) in [
            (t, k, n) for t, k, n in monitor.node_events
        ]

    def test_out_of_range_failure_rejected(self, platform):
        from repro.failures import FailureError

        with pytest.raises(FailureError, match="targets node"):
            Simulation(
                platform,
                [make_job(1)],
                algorithm="fcfs",
                failures=[Failure(time=0.0, node_index=99, downtime=1.0)],
            )

    def test_heavy_failure_trace_keeps_invariants(self, platform):
        failures = generate_failures(
            num_nodes=8, horizon=100.0, mtbf=30.0, mean_repair=5.0, seed=7
        )
        jobs = [
            make_job(i, total_flops=4e9, num_nodes=2, submit_time=2.0 * i)
            for i in range(1, 16)
        ]
        monitor = Simulation(
            platform, jobs, algorithm="easy", failures=failures
        ).run()
        for job in jobs:
            assert job.finished
        # No phantom allocations beyond machine size.
        for _, count in monitor.allocation_series:
            assert 0 <= count <= 8
