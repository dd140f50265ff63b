"""Executor protocol: two methods and a name, fingerprint identity, failure paths."""

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


def _backend(name, tmp_path):
    """``CampaignRunner`` keywords selecting ``name`` (or an instance)."""
    if name == "instance":
        return {"executor": ProcessPoolCampaignExecutor(workers=2)}
    if name == "queue-worker":
        options = {"queue_dir": tmp_path / "queue", "workers": 1, "lease_s": 15.0}
        return {"executor": name, "executor_options": options}
    return {"executor": name}


class TestFingerprintIdentity:
    """The in-process/parallel/cached identity contract, across the matrix."""

    @pytest.fixture(scope="class")
    def reference(self):
        report = CampaignRunner(small_grid(), workers=1).run()
        assert report.executor == "in-process"
        assert [r["status"] for r in report.records] == ["ok"] * 4
        return [result_fingerprint(r) for r in report.records]

    @pytest.mark.parametrize(
        "name", ["in-process", "process-pool", "queue-worker", "instance"]
    )
    def test_backend_matches_serial_reference(self, name, reference, tmp_path):
        report = CampaignRunner(small_grid(), workers=2, **_backend(name, tmp_path)).run()
        assert report.executor == ("process-pool" if name == "instance" else name)
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

    def test_timeout_on_a_non_main_thread(self):
        # What an embedding application's worker thread is: a thread
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


class _BrokenHalfwayExecutor(BaseExecutor):
    """Hands over every other position, then loses its workers."""

    name = "broken-halfway"

    def __init__(self):
        self.closed = False

    def run(self, payloads, *, trace_dir=None, check_invariants=False, timeout=None):
        for position in range(0, len(payloads), 2):
            yield position, run_scenario(
                payloads[position], trace_dir, check_invariants, timeout
            )
        raise ExecutorBroken("simulated backend death")

    def close(self):
        self.closed = True


class _PoolLosingAWorker(ProcessPoolCampaignExecutor):
    """A real process pool; one worker is SIGKILLed (as the OOM killer
    would) as soon as the first record is in."""

    handed = 0

    def run(self, payloads, **options):
        for item in super().run(payloads, **options):
            self.handed += 1
            yield item
            if self.handed == 1:
                next(iter(self._pool._processes.values())).kill()


class TestBrokenExecutor:
    @pytest.fixture(scope="class")
    def reference(self):
        return [
            result_fingerprint(r)
            for r in CampaignRunner(small_grid(), workers=1).run().records
        ]

    def test_broken_submits_rerun_in_process(self, reference):
        executor = _BrokenHalfwayExecutor()
        seen = []
        report = CampaignRunner(small_grid(), executor=executor).run(
            progress=lambda record: seen.append(record["name"])
        )
        assert executor.closed
        assert report.executor == "broken-halfway"
        assert [r["status"] for r in report.records] == ["ok"] * 4
        assert [result_fingerprint(r) for r in report.records] == reference
        # Every scenario is handed over exactly once: the two the executor
        # finished, then the two it stranded.
        names = [s.name for s in small_grid()]
        assert seen == [names[0], names[2], names[1], names[3]]

    def test_killed_pool_worker_still_ends_in_a_complete_report(self, reference):
        # The pool is broken for good and poisons every future in flight;
        # the campaign must neither hang nor lose a scenario.
        executor = _PoolLosingAWorker(workers=2)
        done = []
        thread = threading.Thread(
            target=lambda: done.append(
                CampaignRunner(small_grid(), workers=2, executor=executor).run()
            )
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        (report,) = done
        assert executor.handed < 4  # the pool did break mid-campaign
        assert report.executor == "process-pool"
        assert [r["status"] for r in report.records] == ["ok"] * 4
        assert [result_fingerprint(r) for r in report.records] == reference


class TestReportShape:
    def test_campaign_dict_carries_executor(self):
        report = CampaignRunner([make_scenario()], workers=1).run()
        payload = report.as_dict()
        assert payload["campaign"]["executor"] == "in-process"
        fingerprint = result_fingerprint(report.records[0])
        assert "wall_s" not in json.loads(fingerprint)
