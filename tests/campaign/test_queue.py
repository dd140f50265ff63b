"""Shared queue: claims, leases, reclamation, worker loop, dead-worker survival."""

import json
import os
import threading
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    QueueError,
    QueueWorkerExecutor,
    ResultCache,
    ScenarioQueue,
    ScenarioSpec,
    result_fingerprint,
    run_scenario,
    scenario_key,
    worker_loop,
)

PLATFORM = {
    "nodes": {"count": 8, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10},
}


def make_scenario(**overrides):
    kwargs = dict(
        platform=PLATFORM,
        workload={"generate": {"num_jobs": 4, "max_request": 4, "mean_runtime": 60.0}},
        algorithm="easy",
        seed=3,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def enqueue_scenario(queue, task_id, scenario, *, salt="test-salt"):
    payload = scenario.as_record()
    key = scenario_key(scenario.canonical(), salt=salt)
    queue.enqueue(task_id, payload, key)
    return key


def backdate_claim(queue, task_id, age_s):
    path = queue.claims_dir / f"{task_id}.json"
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


class TestScenarioQueue:
    def test_create_open_roundtrip(self, tmp_path):
        created = ScenarioQueue.create(tmp_path / "q", salt="s", lease_s=7.0)
        opened = ScenarioQueue.open(tmp_path / "q")
        assert opened.manifest["salt"] == "s"
        assert opened.lease_s == 7.0
        assert created.task_ids() == []
        assert not opened.is_closed

    def test_create_twice_refuses(self, tmp_path):
        ScenarioQueue.create(tmp_path / "q")
        with pytest.raises(QueueError, match="already exists"):
            ScenarioQueue.create(tmp_path / "q")

    def test_open_missing_queue(self, tmp_path):
        with pytest.raises(QueueError, match="no compatible queue manifest"):
            ScenarioQueue.open(tmp_path / "ghost")

    def test_claim_is_exclusive(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q")
        enqueue_scenario(queue, "000001", make_scenario())
        assert queue.claimable() == ["000001"]
        assert queue.try_claim("000001", "alice")
        assert not queue.try_claim("000001", "bob")
        assert queue.claimable() == []
        queue.release("000001")
        assert queue.claimable() == ["000001"]

    def test_stale_claim_becomes_claimable(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q", lease_s=5.0)
        enqueue_scenario(queue, "000001", make_scenario())
        assert queue.try_claim("000001", "doomed")
        backdate_claim(queue, "000001", age_s=60.0)
        assert queue.claimable() == ["000001"]
        assert queue.reclaim_stale() == ["000001"]
        # The claim file is gone: a healthy worker can claim it again.
        assert queue.try_claim("000001", "rescuer")

    def test_heartbeat_keeps_claim_live(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q", lease_s=5.0)
        enqueue_scenario(queue, "000001", make_scenario())
        queue.try_claim("000001", "alice")
        backdate_claim(queue, "000001", age_s=60.0)
        queue.heartbeat("000001")
        assert queue.claimable() == []
        assert queue.reclaim_stale() == []

    def test_finished_task_claim_is_tidied(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q", lease_s=5.0)
        enqueue_scenario(queue, "000001", make_scenario())
        queue.try_claim("000001", "alice")
        queue.write_result("000001", {"status": "ok", "result": {}})
        # Owner died between result write and release: not stale yet, but
        # the result exists, so the claim is just litter.
        assert queue.reclaim_stale() == []
        assert not (queue.claims_dir / "000001.json").exists()
        assert queue.unfinished() == []

    def test_increments_append_one_line_per_record(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q")
        queue.append_increment("w1", {"status": "ok", "n": 1})
        queue.append_increment("w1", {"status": "failed", "n": 2})
        queue.append_increment("w2", {"status": "ok", "n": 3})
        paths = queue.increment_paths()
        assert [p.name for p in paths] == ["w1.jsonl", "w2.jsonl"]
        lines = [json.loads(line) for line in paths[0].read_text().splitlines()]
        assert [line["n"] for line in lines] == [1, 2]


class TestWorkerLoop:
    def test_drains_queue_inline(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q", salt="test-salt")
        keys = [
            enqueue_scenario(queue, f"{i:06d}", make_scenario(seed=seed))
            for i, seed in enumerate((3, 4), start=1)
        ]
        queue.close()
        executed = worker_loop(tmp_path / "q", worker_id="inline", poll_s=0.01)
        assert executed == 2
        for i, key in enumerate(keys, start=1):
            record = queue.read_result(f"{i:06d}")
            assert record["status"] == "ok"
        shards = queue.increment_paths()
        assert len(shards) == 1
        assert len(shards[0].read_text().splitlines()) == 2

    def test_reclaims_a_dead_workers_task(self, tmp_path):
        queue = ScenarioQueue.create(tmp_path / "q", salt="test-salt", lease_s=0.5)
        enqueue_scenario(queue, "000001", make_scenario())
        queue.try_claim("000001", "died-mid-run")
        backdate_claim(queue, "000001", age_s=10.0)
        queue.close()
        executed = worker_loop(tmp_path / "q", worker_id="rescuer", poll_s=0.01)
        assert executed == 1
        assert queue.read_result("000001")["status"] == "ok"

    def test_answers_from_shared_store(self, tmp_path):
        scenario = make_scenario()
        record = run_scenario(scenario.as_record())
        key = scenario_key(scenario.canonical(), salt="test-salt")
        store = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        store.store(key, record)

        queue = ScenarioQueue.create(
            tmp_path / "q",
            salt="test-salt",
            store_dir=tmp_path / "shared",
            cache_dir=tmp_path / "worker-local",
        )
        queue.enqueue("000001", scenario.as_record(), key)
        queue.close()
        executed = worker_loop(tmp_path / "q", worker_id="cached", poll_s=0.01)
        assert executed == 1
        answered = queue.read_result("000001")
        assert answered["cached"] is True
        assert result_fingerprint(answered) == result_fingerprint(record)

    def test_exit_when_idle_on_empty_queue(self, tmp_path):
        ScenarioQueue.create(tmp_path / "q")
        assert (
            worker_loop(tmp_path / "q", worker_id="idle", exit_when_idle=True) == 0
        )


class TestQueueWorkerExecutor:
    def test_killed_worker_loses_no_scenarios(self, tmp_path):
        """The acceptance-criterion unit test: kill a worker, lose nothing."""
        scenarios = [make_scenario(seed=seed) for seed in (3, 4, 5)]
        reference = [
            result_fingerprint(r)
            for r in CampaignRunner(scenarios, workers=1).run().records
        ]
        executor = QueueWorkerExecutor(
            queue_dir=tmp_path / "q", workers=2, lease_s=2.0, salt="test-salt"
        )
        # One of the fleet dies before it can finish anything; the lease
        # mechanism hands its claims to the survivor.
        executor._spawned[0].kill()
        report = CampaignRunner(scenarios, workers=2, executor=executor).run()
        assert [r["status"] for r in report.records] == ["ok"] * 3
        assert [result_fingerprint(r) for r in report.records] == reference

    def test_coordinator_polls_once_per_tick_not_once_per_scenario(self, tmp_path):
        """24 pending scenarios, one inline worker: per poll tick the
        coordinator lists ``results/`` once and scans ``claims/`` at most
        once — it used to do both once per pending scenario."""
        scenarios = [make_scenario(seed=seed) for seed in range(24)]
        executor = QueueWorkerExecutor(
            queue_dir=tmp_path / "q", workers=0, lease_s=30.0, salt="test-salt"
        )
        calls = {"finished": 0, "reclaim_stale": 0}
        for name in calls:
            original = getattr(executor.queue, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # Instance attributes: the worker thread opens a queue object
            # of its own, so only the coordinator's calls are counted.
            setattr(executor.queue, name, counted)
        worker = threading.Thread(
            target=worker_loop,
            args=(tmp_path / "q",),
            kwargs={"worker_id": "inline", "poll_s": 0.01},
        )
        worker.start()
        report = CampaignRunner(scenarios, executor=executor).run()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [r["status"] for r in report.records] == ["ok"] * 24
        # A tick sleeps poll_s (0.05 s) and never less, whatever is pending.
        assert 1 <= calls["finished"] <= report.wall_s / 0.05 + 1
        assert calls["reclaim_stale"] <= calls["finished"]

    def test_whole_fleet_dead_falls_back_in_process(self, tmp_path):
        scenarios = [make_scenario(seed=3)]
        executor = QueueWorkerExecutor(
            queue_dir=tmp_path / "q", workers=1, lease_s=0.3, salt="test-salt"
        )
        for proc in executor._spawned:
            proc.kill()
            proc.wait(timeout=10)
        report = CampaignRunner(scenarios, workers=2, executor=executor).run()
        assert [r["status"] for r in report.records] == ["ok"]
