"""Oracle stack unit tests: transforms, verdicts, and sensitivity.

The solver-mutation acceptance test lives in test_solver_mutation.py;
here each oracle is exercised on small hand-built scenarios, including
checks that the oracles *can* fail (a vacuously-green oracle is worse
than none).
"""

import json

import pytest

import repro.fuzz.oracles as oracles
import repro.sharing._reference as reference_kernel
from repro.fuzz import OracleFailure, check_scenario, run_scenario_record
from repro.fuzz.oracles import (
    ORACLES,
    _first_diff,
    differential_oracle,
    invariant_oracle,
    permute_jids_oracle,
    rigid_as_malleable_oracle,
    scale_scenario,
    scale_time_oracle,
    spare_nodes_oracle,
)


def scenario_dict(algorithm="easy", **sim):
    return {
        "name": "unit",
        "algorithm": algorithm,
        "seed": 0,
        "sim": dict(sim),
        "platform": {
            "nodes": {"count": 4, "flops": 1e11},
            "network": {"topology": "star", "bandwidth": 1e10,
                        "pfs_bandwidth": 1e10, "latency": 1e-6},
            "pfs": {"read_bw": 1e10, "write_bw": 5e9},
        },
        "workload": {"inline": {"jobs": [
            {"id": 1, "type": "rigid", "submit_time": 0.0, "num_nodes": 2,
             "walltime": 500.0,
             "application": {"phases": [
                 {"tasks": [{"type": "cpu", "flops": "1e11 / num_nodes"}],
                  "iterations": 2},
                 {"tasks": [{"type": "pfs_read", "bytes": 1e8},
                            {"type": "comm", "bytes": 1e6,
                             "pattern": "alltoall"}]},
             ]}},
            {"id": 2, "type": "malleable", "submit_time": 1.5, "num_nodes": 2,
             "min_nodes": 1, "max_nodes": 4,
             "application": {"phases": [
                 {"tasks": [{"type": "cpu", "flops": 5e10,
                             "distribution": "per_node"}],
                  "iterations": 3},
             ]}},
        ]}},
    }


class TestRunScenarioRecord:
    def test_all_modes_produce_a_record(self):
        scenario = scenario_dict()
        for reference in (False, True):
            record = run_scenario_record(scenario, reference=reference)
            assert record["num_jobs"] == 2
            assert record["summary"]["completed_jobs"] == 2

    def test_no_two_modes_are_the_same_run(self, monkeypatch):
        # Exactly two runs, one per engine: they differ at every fork.
        real = oracles.run_scenario_record
        engines = []

        def spy(scenario, *, reference=False):
            engines.append(reference)
            return real(scenario, reference=reference)

        monkeypatch.setattr(oracles, "run_scenario_record", spy)
        assert differential_oracle(scenario_dict()) is None
        assert engines == [False, True]

    def test_prefail_keeps_nodes_out_of_service(self):
        scenario = scenario_dict()
        scenario["platform"]["nodes"]["count"] = 6
        base = run_scenario_record(scenario_dict())
        wide = run_scenario_record(scenario, prefail=2)
        assert base["summary"]["makespan"] == wide["summary"]["makespan"]


class TestDifferentialOracle:
    def test_clean_engine_passes(self):
        assert differential_oracle(scenario_dict()) is None

    def test_detects_kernel_divergence(self, monkeypatch):
        # Sabotage the vector kernel outright: the oracle must notice.
        orig = reference_kernel._solve_vector

        def broken(acts):
            orig(acts)
            for act in acts:
                if act.rate not in (0.0, float("inf")):
                    act.rate *= 0.5

        monkeypatch.setattr(reference_kernel, "_solve_vector", broken)
        failure = differential_oracle(scenario_dict())
        assert failure is not None
        assert failure.oracle == "differential"
        assert "reference=True" in failure.detail


class TestInvariantOracle:
    def test_clean_run_passes(self):
        assert invariant_oracle(scenario_dict()) is None

    def test_with_failure_trace(self):
        scenario = scenario_dict(
            failures={"trace": [{"time": 2.0, "node": 0, "downtime": 10.0}]},
            requeue_on_failure=True,
            max_requeues=1,
        )
        assert invariant_oracle(scenario) is None


class TestPermuteJidsOracle:
    def test_clean_engine_passes(self):
        assert permute_jids_oracle(scenario_dict()) is None

    def test_skips_random_scheduler(self):
        assert permute_jids_oracle(scenario_dict(algorithm="random:1")) is None


class TestScaleTime:
    def test_transform_scales_time_dimensioned_fields_only(self):
        scenario = scenario_dict(
            invocation_interval=10.0,
            failures={"trace": [{"time": 2.0, "node": 1, "downtime": 8.0}]},
        )
        scaled = scale_scenario(scenario, 4)
        jobs = scaled["workload"]["inline"]["jobs"]
        assert jobs[0]["walltime"] == 2000.0
        assert jobs[1]["submit_time"] == 6.0
        assert jobs[1]["min_nodes"] == 1  # counts untouched
        cpu = jobs[0]["application"]["phases"][0]["tasks"][0]
        assert cpu["flops"] == "(1e11 / num_nodes) * 4"
        assert scaled["platform"]["network"]["latency"] == 4e-6
        assert scaled["sim"]["invocation_interval"] == 40.0
        assert scaled["sim"]["failures"]["trace"][0] == {
            "time": 8.0, "node": 1, "downtime": 32.0
        }

    def test_clean_engine_passes(self):
        assert scale_time_oracle(scenario_dict()) is None

    def test_detects_unscaled_behaviour(self, monkeypatch):
        # Emulate an engine whose walltime enforcement ignores scaling:
        # pin the scaled run's walltime below its (x4) runtime, so the
        # job gets killed there but not in the base run.
        scenario = scenario_dict()
        import repro.fuzz.oracles as oracles_mod

        def sabotaged(sc, k=4):
            scaled = scale_scenario(sc, k)
            scaled["workload"]["inline"]["jobs"][0]["walltime"] = 2.0
            return scaled

        monkeypatch.setattr(oracles_mod, "scale_scenario", sabotaged)
        failure = oracles_mod.scale_time_oracle(scenario)
        assert failure is not None and failure.oracle == "scale-time"


class TestSpareNodesOracle:
    def test_clean_engine_passes(self):
        assert spare_nodes_oracle(scenario_dict()) is None

    def test_skips_machine_size_sensitive_policies(self):
        assert spare_nodes_oracle(scenario_dict(algorithm="malleable")) is None
        assert spare_nodes_oracle(scenario_dict(algorithm="random:0")) is None


class TestRigidAsMalleableOracle:
    @pytest.mark.parametrize(
        "algorithm",
        ["fcfs", "easy", "sjf", "fairshare", "conservative", "moldable",
         "adaptive-moldable", "malleable"],
    )
    def test_clean_engine_passes(self, algorithm):
        assert rigid_as_malleable_oracle(scenario_dict(algorithm)) is None

    def test_skips_scenarios_without_rigid_jobs(self):
        scenario = scenario_dict()
        for job in scenario["workload"]["inline"]["jobs"]:
            if job["type"] == "rigid":
                job["type"] = "moldable"
                job["min_nodes"] = job["max_nodes"] = job["num_nodes"]
        assert rigid_as_malleable_oracle(scenario) is None


class TestCheckScenario:
    def test_clean_scenario_runs_all_oracles(self):
        assert check_scenario(scenario_dict()) == []

    def test_crash_short_circuits(self):
        scenario = scenario_dict()
        # Unresolvable workload: rigid job larger than the machine is
        # rejected at construction -> a "crash" verdict, reported once.
        scenario["workload"]["inline"]["jobs"][0]["num_nodes"] = 64
        failures = check_scenario(scenario)
        assert len(failures) == 1
        assert failures[0].oracle == "crash"

    def test_oracle_subset_is_honoured(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            ORACLES, "differential", lambda s: calls.append("d") or None
        )
        monkeypatch.setitem(
            ORACLES, "invariant", lambda s: calls.append("i") or None
        )
        check_scenario(scenario_dict(), ["invariant"])
        assert calls == ["i"]

    def test_oracle_crash_becomes_failure(self, monkeypatch):
        def boom(scenario):
            raise RuntimeError("oracle exploded")

        monkeypatch.setitem(ORACLES, "differential", boom)
        failures = check_scenario(scenario_dict(), ["differential"])
        assert failures == [
            OracleFailure("differential", "RuntimeError: oracle exploded")
        ]


def test_first_diff_points_at_divergence():
    a = {"summary": {"makespan": 1.0, "mean_wait": 0.5}, "events": 7}
    b = {"summary": {"makespan": 1.0, "mean_wait": 0.75}, "events": 7}
    assert _first_diff(a, b) == ".summary.mean_wait: 0.5 != 0.75"


def test_oracle_failure_round_trips_through_json():
    failure = OracleFailure("differential", "detail text")
    blob = json.dumps({"oracle": failure.oracle, "detail": failure.detail})
    assert json.loads(blob)["oracle"] == "differential"
