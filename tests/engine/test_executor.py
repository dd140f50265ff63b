"""Tests for task execution timing: compute, comm, I/O, delays."""

import pytest

from repro.application import (
    ApplicationModel,
    BbWriteTask,
    CommPattern,
    CommTask,
    CpuTask,
    DelayTask,
    Distribution,
    PfsReadTask,
    PfsWriteTask,
    Phase,
)
from repro.engine import EngineError
from repro.platform import platform_from_dict


def app_of(*tasks, iterations=1, data_per_node=0, scheduling_point=True):
    return ApplicationModel(
        [Phase(list(tasks), iterations=iterations, scheduling_point=scheduling_point)],
        data_per_node=data_per_node,
    )


class TestCompute:
    def test_even_compute_time(self, env, start_job):
        # 4e9 flops over 4 nodes of 1e9 flops/s → 1 s.
        job, proc = start_job(app_of(CpuTask("4e9")))
        env.run()
        assert proc.value == "completed"
        assert env.now == pytest.approx(1.0)

    def test_per_node_compute_time(self, env, start_job):
        job, proc = start_job(
            app_of(CpuTask("2e9", distribution=Distribution.PER_NODE))
        )
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_strong_scaling_speedup(self, env, start_job):
        # Same total work on 2 nodes takes twice the per-node share.
        job, proc = start_job(app_of(CpuTask("4e9")), num_nodes=2)
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_iterations_multiply_time(self, env, start_job):
        job, proc = start_job(app_of(CpuTask("4e9"), iterations=3))
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_zero_flops_instant(self, env, start_job):
        job, proc = start_job(app_of(CpuTask(0)))
        env.run()
        assert env.now == 0.0
        assert proc.value == "completed"

    def test_sequential_tasks_in_phase(self, env, start_job):
        job, proc = start_job(app_of(CpuTask("4e9"), CpuTask("8e9")))
        env.run()
        assert env.now == pytest.approx(3.0)


class TestCommunication:
    def test_ring_no_contention(self, env, start_job):
        # Ring: each up/down link carries exactly one 1e9-byte flow at 1e9 B/s.
        job, proc = start_job(app_of(CommTask("1e9", pattern=CommPattern.RING)))
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_alltoall_contends_on_nics(self, env, start_job):
        # All-to-all on 4 nodes: each up link carries 3 flows → each flow
        # gets 1/3 of 1e9 B/s → 1e9 bytes take 3 s.
        job, proc = start_job(app_of(CommTask("1e9", pattern=CommPattern.ALL_TO_ALL)))
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_bcast_contends_on_root_uplink(self, env, start_job):
        # Root sends 3 x 1e9 through its single 1e9 B/s uplink → 3 s.
        job, proc = start_job(app_of(CommTask("1e9", pattern=CommPattern.BCAST)))
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_single_node_comm_is_free(self, env, start_job):
        job, proc = start_job(app_of(CommTask("1e9")), num_nodes=1)
        env.run()
        assert env.now == 0.0

    def test_zero_bytes_is_free(self, env, start_job):
        job, proc = start_job(app_of(CommTask(0)))
        env.run()
        assert env.now == 0.0


class TestPfsIo:
    def test_write_limited_by_pfs_bandwidth(self, env, start_job):
        # 4 nodes x 1e9 B (per_node) against a 2e9 B/s PFS write service:
        # aggregate 4e9 B at 2e9 B/s → 2 s.
        job, proc = start_job(
            app_of(PfsWriteTask("1e9", distribution=Distribution.PER_NODE))
        )
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_read_limited_by_node_links_when_pfs_fast(self, env, start_job):
        # 1 node reads 3e9 B: PFS read 2e9 B/s beats the 1e9 B/s node link →
        # the link is the bottleneck → 3 s.
        job, proc = start_job(
            app_of(PfsReadTask("3e9", distribution=Distribution.PER_NODE)),
            num_nodes=1,
        )
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_even_distribution_splits_io(self, env, start_job):
        # 4e9 B total over 4 nodes → 1e9 B each; PFS write 2e9 B/s shared →
        # 2 s (same as per-node 1e9 case).
        job, proc = start_job(app_of(PfsWriteTask("4e9")))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_missing_pfs_raises(self, env, model, batch):
        from repro.engine import JobExecutor
        from repro.job import Job

        spec = {
            "nodes": {"count": 2, "flops": 1e9},
            "network": {"topology": "star", "bandwidth": 1e9},
        }
        platform = platform_from_dict(spec)
        job = Job(1, app_of(PfsWriteTask("1e9")), num_nodes=2)
        nodes = platform.nodes[:2]
        for node in nodes:
            node.allocate(job)
        job.mark_started(nodes, 0.0)
        executor = JobExecutor(env, platform, model, job, batch)
        env.process(executor.run())
        with pytest.raises(EngineError, match="needs a PFS"):
            env.run()


class TestBurstBuffer:
    def test_bb_write_time_and_charge(self, env, platform, start_job):
        # Each node writes 1e9 B to its own 1e9 B/s BB → 1 s, capacity used.
        job, proc = start_job(
            app_of(BbWriteTask("1e9", distribution=Distribution.PER_NODE))
        )
        env.run()
        assert env.now == pytest.approx(1.0)
        assert platform.nodes[0].bb.used == pytest.approx(1e9)

    def test_bb_write_no_charge_option(self, env, platform, start_job):
        job, proc = start_job(
            app_of(
                BbWriteTask("1e9", distribution=Distribution.PER_NODE, charge=False)
            )
        )
        env.run()
        assert platform.nodes[0].bb.used == 0.0

    def test_bb_parallel_across_nodes(self, env, start_job):
        # BBs are node-local: 4 nodes writing in parallel still take 1 s.
        job, proc = start_job(
            app_of(BbWriteTask("1e9", distribution=Distribution.PER_NODE)),
            num_nodes=4,
        )
        env.run()
        assert env.now == pytest.approx(1.0)


class TestDelay:
    def test_delay_task(self, env, start_job):
        job, proc = start_job(app_of(DelayTask("2.5")))
        env.run()
        assert env.now == pytest.approx(2.5)

    def test_zero_delay(self, env, start_job):
        job, proc = start_job(app_of(DelayTask(0)))
        env.run()
        assert env.now == 0.0


class TestSchedulingPoints:
    def test_scheduling_point_per_iteration(self, env, batch, start_job):
        job, proc = start_job(app_of(CpuTask("4e9"), iterations=3))
        env.run()
        assert job.scheduling_points_seen == 3
        assert len(batch.scheduling_points) == 3

    def test_no_scheduling_points_when_disabled(self, env, batch, start_job):
        job, proc = start_job(
            app_of(CpuTask("4e9"), iterations=3, scheduling_point=False)
        )
        env.run()
        assert job.scheduling_points_seen == 0
        assert batch.scheduling_points == []


class TestKill:
    def test_interrupt_mid_compute_reports_killed(self, env, model, start_job):
        job, proc = start_job(app_of(CpuTask("10e9")))  # would take 2.5 s

        def killer(env, proc):
            yield env.timeout(1.0)
            proc.interrupt("walltime")

        env.process(killer(env, proc))
        env.run(until=proc)
        assert proc.value == "killed"
        assert job.kill_reason == "walltime"
        assert env.now == pytest.approx(1.0)
        # All in-flight activities were cancelled.
        assert model.component_count == 0

    def test_interrupt_mid_delay(self, env, start_job):
        job, proc = start_job(app_of(DelayTask("100")))

        def killer(env, proc):
            yield env.timeout(5.0)
            proc.interrupt("kill")

        env.process(killer(env, proc))
        env.run(until=proc)
        assert proc.value == "killed"
        assert env.now == pytest.approx(5.0)

    def test_kill_frees_shared_resources_for_others(self, env, model, start_job):

        job, proc = start_job(app_of(CpuTask("10e9")), num_nodes=4)

        def killer(env, proc):
            yield env.timeout(1.0)
            proc.interrupt("kill")

        env.process(killer(env, proc))
        env.run(until=proc)
        # The node CPUs must be free again: a new activity gets full rate.
        assert model.component_count == 0
