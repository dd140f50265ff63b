"""Campaign execution: determinism, parallel equality, failure isolation."""

import json

import pytest

from repro.campaign import (
    CampaignError,
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
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


class TestRunScenario:
    def test_ok_record_shape(self):
        record = run_scenario(make_scenario().as_record())
        assert record["status"] == "ok"
        summary = record["result"]["summary"]
        assert summary["completed_jobs"] + summary["killed_jobs"] == 4
        assert record["result"]["processed_events"] > 0
        assert record["wall_s"] >= 0

    def test_failure_is_a_record_not_an_exception(self):
        record = run_scenario(make_scenario(algorithm="wishful").as_record())
        assert record["status"] == "failed"
        assert "wishful" in record["error"]

    def test_same_spec_same_fingerprint(self):
        a = run_scenario(make_scenario().as_record())
        b = run_scenario(make_scenario().as_record())
        assert result_fingerprint(a) == result_fingerprint(b)
        # wall_s is volatile and must not leak into the fingerprint.
        assert "wall_s" not in json.loads(result_fingerprint(a))

    def test_different_seed_different_fingerprint(self):
        a = run_scenario(make_scenario(seed=3).as_record())
        b = run_scenario(make_scenario(seed=4).as_record())
        assert result_fingerprint(a) != result_fingerprint(b)


class TestRunner:
    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(CampaignError):
            CampaignRunner([])
        with pytest.raises(CampaignError):
            CampaignRunner([make_scenario(name="x"), make_scenario(name="x")])

    def test_serial_run_order_and_accounting(self):
        scenarios = small_grid()
        report = CampaignRunner(scenarios, name="t", workers=1).run()
        assert [r["name"] for r in report.records] == [s.name for s in scenarios]
        assert len(report.ok) == 4
        assert report.failed == []
        assert report.executed == 4
        assert report.cache_hits == 0

    def test_parallel_equals_serial(self):
        scenarios = small_grid()
        serial = CampaignRunner(scenarios, name="t", workers=1).run()
        parallel = CampaignRunner(scenarios, name="t", workers=2).run()
        assert [result_fingerprint(r) for r in serial.records] == [
            result_fingerprint(r) for r in parallel.records
        ]

    def test_failed_scenario_does_not_kill_campaign(self):
        scenarios = [
            make_scenario(seed=3),
            make_scenario(algorithm="wishful", seed=3),
            make_scenario(seed=4),
        ]
        report = CampaignRunner(scenarios, name="t", workers=2).run()
        assert len(report.records) == 3
        assert len(report.ok) == 2
        assert len(report.failed) == 1
        assert "wishful" in report.failed[0]["error"]

    def test_progress_callback_sees_every_record(self):
        seen = []
        CampaignRunner(small_grid(), name="t", workers=1).run(progress=seen.append)
        assert len(seen) == 4
        assert all(r["status"] == "ok" for r in seen)


class TestRunnerCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        scenarios = small_grid()
        cache = ResultCache(tmp_path)
        cold = CampaignRunner(scenarios, name="t", workers=1, cache=cache).run()
        warm = CampaignRunner(scenarios, name="t", workers=1, cache=cache).run()
        assert cold.cache_hits == 0 and cold.executed == 4
        assert warm.cache_hits == 4 and warm.executed == 0
        assert all(r["cached"] for r in warm.records)
        assert [result_fingerprint(r) for r in cold.records] == [
            result_fingerprint(r) for r in warm.records
        ]

    def test_spec_change_invalidates_only_that_scenario(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenarios = small_grid()
        CampaignRunner(scenarios, name="t", workers=1, cache=cache).run()
        scenarios[0] = make_scenario(algorithm="easy", seed=99)
        rerun = CampaignRunner(scenarios, name="t", workers=1, cache=cache).run()
        assert rerun.cache_hits == 3
        assert rerun.executed == 1

    def test_force_reruns_despite_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenarios = small_grid()
        CampaignRunner(scenarios, name="t", workers=1, cache=cache).run()
        forced = CampaignRunner(
            scenarios, name="t", workers=1, cache=cache, force=True
        ).run()
        assert forced.cache_hits == 0
        assert forced.executed == 4

    def test_failed_scenarios_are_retried_next_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = [make_scenario(algorithm="wishful")]
        CampaignRunner(bad, name="t", workers=1, cache=cache).run()
        retry = CampaignRunner(bad, name="t", workers=1, cache=cache).run()
        assert retry.cache_hits == 0
        assert retry.executed == 1


class TestReport:
    def test_write_emits_jsonl_and_aggregate(self, tmp_path):
        report = CampaignRunner(small_grid(), name="demo", workers=1).run()
        out = report.write(tmp_path / "results")
        lines = out["scenarios"].read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["status"] == "ok" for line in lines)
        aggregate = json.loads(out["aggregate"].read_text())
        assert aggregate["header"][0] == "scenario"
        assert len(aggregate["rows"]) == 4
        assert aggregate["campaign"]["failed"] == 0
        assert {row["scenario"] for row in aggregate["rows"]} == {
            s.name for s in small_grid()
        }

    def test_aggregate_rows_carry_metrics(self):
        report = CampaignRunner([make_scenario()], name="demo", workers=1).run()
        row = report.as_dict()["rows"][0]
        assert row["status"] == "ok"
        assert row["makespan"] > 0
        assert row["completed_jobs"] + row["killed_jobs"] == 4

    def test_written_report_is_byte_identical_across_runs(self, tmp_path):
        # The full determinism claim: same spec, same bytes on disk.
        scenarios = [make_scenario()]
        a = CampaignRunner(scenarios, name="demo", workers=1).run()
        b = CampaignRunner(scenarios, name="demo", workers=1).run()

        def stable_lines(report, out):
            paths = report.write(out)
            return [
                {k: v for k, v in json.loads(line).items() if k != "wall_s"}
                for line in paths["scenarios"].read_text().splitlines()
            ]

        assert stable_lines(a, tmp_path / "a") == stable_lines(b, tmp_path / "b")


class TestTracingIntegration:
    def test_run_scenario_writes_trace(self, tmp_path):
        record = run_scenario(
            make_scenario().as_record(), str(tmp_path), check_invariants=True
        )
        assert record["status"] == "ok"
        trace = record["trace"]
        assert trace.endswith(".trace.jsonl")
        from repro.tracing import check_trace

        assert check_trace(trace, num_nodes=8) == []

    def test_trace_filename_is_sanitised(self, tmp_path):
        record = run_scenario(
            make_scenario(name="easy/seed=0").as_record(),
            str(tmp_path),
            check_invariants=False,
        )
        assert "/" not in record["trace"].rsplit("/", 1)[-1].replace(".trace.jsonl", "")
        assert (tmp_path / "easy_seed_0.trace.jsonl").exists()

    def test_check_invariants_changes_cache_salt(self):
        plain = CampaignRunner([make_scenario()], workers=1)
        checked = CampaignRunner([make_scenario()], workers=1, check_invariants=True)
        assert checked.salt == plain.salt + "+invariants"

    def test_trace_dir_bypasses_cache_reads(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenarios = [make_scenario()]
        warm = CampaignRunner(scenarios, workers=1, cache=cache).run()
        assert warm.executed == 1
        # A cache hit has no trace to offer: the traced run must execute.
        traced = CampaignRunner(
            scenarios, workers=1, cache=cache, trace_dir=tmp_path / "traces"
        ).run()
        assert traced.cache_hits == 0
        assert traced.executed == 1
        assert (tmp_path / "traces").is_dir()
        assert list((tmp_path / "traces").glob("*.trace.jsonl"))

    def test_trace_path_not_stored_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenarios = [make_scenario()]
        CampaignRunner(
            scenarios, workers=1, cache=cache, trace_dir=tmp_path / "traces"
        ).run()
        # The cached record must not advertise a file it never wrote.
        hit = CampaignRunner(scenarios, workers=1, cache=cache).run()
        (record,) = hit.records
        assert record["cached"] is True
        assert "trace" not in record

    def test_parallel_workers_write_traces(self, tmp_path):
        report = CampaignRunner(
            small_grid(),
            workers=2,
            trace_dir=tmp_path / "traces",
            check_invariants=True,
        ).run()
        assert len(report.ok) == 4
        assert len(list((tmp_path / "traces").glob("*.trace.jsonl"))) == 4
