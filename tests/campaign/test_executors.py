"""Executor protocol: capability flags, fingerprint identity, failure paths."""

import json
import threading

import pytest

from repro.campaign import (
    BaseExecutor,
    CampaignError,
    CampaignRunner,
    ExecutorBroken,
    ExecutorError,
    InProcessExecutor,
    ProcessPoolCampaignExecutor,
    QueueWorkerExecutor,
    ScenarioSpec,
    executor_names,
    make_executor,
    result_fingerprint,
    run_scenario,
)

PLATFORM = {
    "nodes": {"count": 8, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10},
}


def make_scenario(**overrides):
    kwargs = dict(
        platform=PLATFORM,
        workload={
            "generate": {
                "num_jobs": 4,
                "max_request": 4,
                "mean_runtime": 60.0,
                "malleable_fraction": 0.5,
            }
        },
        algorithm="malleable",
        seed=3,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def small_grid():
    return [
        make_scenario(algorithm=algorithm, seed=seed)
        for algorithm in ("easy", "malleable")
        for seed in (3, 4)
    ]


def slow_scenario():
    """A valid scenario big enough to outlive any sub-second deadline."""
    return make_scenario(
        algorithm="easy",
        workload={"generate": {"num_jobs": 2000, "max_request": 4}},
    )


class TestProtocol:
    def test_registry_names(self):
        assert executor_names() == (
            "in-process",
            "process-pool",
            "queue-worker",
        )

    def test_capability_flags(self):
        assert not InProcessExecutor.parallel
        assert not InProcessExecutor.distributed
        assert ProcessPoolCampaignExecutor.parallel
        assert ProcessPoolCampaignExecutor.isolates_processes
        assert QueueWorkerExecutor.distributed
        assert QueueWorkerExecutor.isolates_processes

    def test_all_backends_implement_base(self):
        for cls in (
            InProcessExecutor,
            ProcessPoolCampaignExecutor,
            QueueWorkerExecutor,
        ):
            assert issubclass(cls, BaseExecutor)
            assert cls.name in executor_names()

    def test_make_executor_unknown_name(self):
        with pytest.raises(ExecutorError, match="unknown executor"):
            make_executor("carrier-pigeon")

    def test_make_executor_bad_options(self):
        with pytest.raises(ExecutorError, match="bad options"):
            make_executor("in-process", workers=4)

    def test_queue_worker_requires_queue_dir(self):
        with pytest.raises(ExecutorError, match="queue_dir"):
            make_executor("queue-worker")

    def test_runner_rejects_unknown_executor(self):
        with pytest.raises(CampaignError, match="unknown executor"):
            CampaignRunner([make_scenario()], executor="carrier-pigeon")


class TestFingerprintIdentity:
    """The serial/parallel/cached identity contract, across the matrix."""

    @pytest.fixture(scope="class")
    def reference(self):
        report = CampaignRunner(small_grid(), workers=1).run()
        assert [r["status"] for r in report.records] == ["ok"] * 4
        return [result_fingerprint(r) for r in report.records]

    @pytest.mark.parametrize("name", ["in-process", "process-pool"])
    def test_backend_matches_serial_reference(self, name, reference):
        report = CampaignRunner(small_grid(), workers=2, executor=name).run()
        assert report.executor == name
        assert [result_fingerprint(r) for r in report.records] == reference

    def test_queue_worker_matches_serial_reference(self, reference, tmp_path):
        report = CampaignRunner(
            small_grid(),
            workers=2,
            executor="queue-worker",
            executor_options={
                "queue_dir": tmp_path / "queue",
                "workers": 1,
                "lease_s": 15.0,
            },
        ).run()
        assert report.executor == "queue-worker"
        assert [result_fingerprint(r) for r in report.records] == reference

    def test_explicit_executor_instance(self, reference):
        report = CampaignRunner(
            small_grid(), workers=2, executor=ProcessPoolCampaignExecutor(workers=2)
        ).run()
        assert [result_fingerprint(r) for r in report.records] == reference


# An injected ScenarioTimeout can land inside a GC callback (hypothesis
# registers one), where the interpreter can only report it as unraisable;
# the watchdog re-injects until the scenario frame unwinds — see
# ``_scenario_deadline``'s docstring.  That stray report is the documented
# cost of asynchronous delivery, not a leak, so strict-warning runs
# (``-W error::pytest.PytestUnraisableExceptionWarning``) let it pass here.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
class TestScenarioTimeout:
    def test_run_scenario_times_out_with_error_kind(self):
        record = run_scenario(slow_scenario().as_record(), None, False, 0.2)
        assert record["status"] == "failed"
        assert record["error_kind"] == "timeout"
        assert "ScenarioTimeout" in record["error"]

    def test_ordinary_failures_are_kind_exception(self):
        record = run_scenario(make_scenario(algorithm="wishful").as_record())
        assert record["status"] == "failed"
        assert record["error_kind"] == "exception"

    def test_fast_scenario_unaffected_by_deadline(self):
        with_deadline = run_scenario(make_scenario().as_record(), None, False, 60.0)
        without = run_scenario(make_scenario().as_record())
        assert with_deadline["status"] == "ok"
        assert result_fingerprint(with_deadline) == result_fingerprint(without)

    def test_runner_records_timeout_and_continues(self):
        scenarios = [slow_scenario(), make_scenario(algorithm="easy", seed=4)]
        report = CampaignRunner(scenarios, workers=1, scenario_timeout=0.2).run()
        statuses = {r["name"]: r.get("status") for r in report.records}
        kinds = {r["name"]: r.get("error_kind") for r in report.records}
        assert statuses[scenarios[0].name] == "failed"
        assert kinds[scenarios[0].name] == "timeout"
        assert statuses[scenarios[1].name] == "ok"

    def test_timeout_on_asyncio_executor_thread(self):
        # What an embedding application's ``to_thread`` worker is: a thread
        # other than the main one, which cannot receive signals; the
        # watchdog must deliver the deadline there too.
        records = []
        thread = threading.Thread(
            target=lambda: records.append(
                run_scenario(slow_scenario().as_record(), timeout=0.2)
            )
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        (record,) = records
        assert record["status"] == "failed"
        assert record["error_kind"] == "timeout"

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(CampaignError, match="scenario_timeout"):
            CampaignRunner([make_scenario()], scenario_timeout=0.0)

    def test_deadline_survives_a_swallowed_delivery(self):
        # Asynchronous injection can land inside an arbitrary except
        # clause and be absorbed; the watchdog must re-inject until the
        # scenario frame actually unwinds, or the deadline is lost and
        # the scenario runs unbounded.
        import time

        from repro.campaign.runner import ScenarioTimeout, _scenario_deadline

        absorbed = False
        with pytest.raises(ScenarioTimeout):
            with _scenario_deadline(0.05):
                try:
                    end = time.monotonic() + 30.0
                    while time.monotonic() < end:
                        pass
                except ScenarioTimeout:
                    absorbed = True
                # The first delivery was swallowed above; only a repeat
                # injection can terminate this second spin.
                end = time.monotonic() + 30.0
                while time.monotonic() < end:
                    pass
        assert absorbed

    def test_deadline_exit_leaves_profiling_usable(self):
        # Disposal of a raced injection must not leave the interpreter's
        # eval-breaker signalled (as PyThreadState_SetAsyncExc(tid, NULL)
        # does on CPython 3.11): that silently turns every later
        # cProfile'd run into a near-livelock, surfacing as
        # order-dependent multi-minute stalls in unrelated tests.
        import cProfile
        import time

        from repro.campaign.runner import ScenarioTimeout, _scenario_deadline

        with _scenario_deadline(60.0):
            pass
        with pytest.raises(ScenarioTimeout):
            with _scenario_deadline(0.05):
                end = time.monotonic() + 30.0
                while time.monotonic() < end:
                    pass
        start = time.perf_counter()
        profiler = cProfile.Profile()
        profiler.enable()
        total = 0
        for i in range(100_000):
            total += i
        profiler.disable()
        assert total == sum(range(100_000))
        assert time.perf_counter() - start < 10.0


class _BrokenOnceExecutor(BaseExecutor):
    """Raises ExecutorBroken for every other submit."""

    name = "broken-once"

    def __init__(self):
        self.calls = 0

    async def submit(self, fn, /, *args):
        self.calls += 1
        if self.calls % 2 == 1:
            raise ExecutorBroken("simulated backend death")
        return fn(*args)


class TestBrokenExecutor:
    def test_broken_submits_rerun_in_process(self):
        grid = small_grid()
        reference = [
            result_fingerprint(r)
            for r in CampaignRunner(grid, workers=1).run().records
        ]
        report = CampaignRunner(grid, executor=_BrokenOnceExecutor()).run()
        assert [r["status"] for r in report.records] == ["ok"] * 4
        assert [result_fingerprint(r) for r in report.records] == reference


class TestReportShape:
    def test_campaign_dict_carries_executor(self):
        report = CampaignRunner([make_scenario()], workers=1).run()
        payload = report.as_dict()
        assert payload["campaign"]["executor"] == "serial"
        fingerprint = result_fingerprint(report.records[0])
        assert "wall_s" not in json.loads(fingerprint)
