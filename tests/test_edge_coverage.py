"""Edge-path tests that round out coverage of smaller branches."""

import json

import pytest

from repro.cli import main
from repro.expressions import parse

from tests.batch.conftest import make_job


class TestExpressionEdges:
    def test_unary_plus(self):
        assert parse("+5").evaluate({}) == 5
        assert parse("+-+5").evaluate({}) == -5

    def test_modulo_floats(self):
        assert parse("7.5 % 2").evaluate({}) == pytest.approx(1.5)

    def test_comparison_chains_via_if(self):
        expr = parse("if((a >= 1) * (a <= 3), 10, 20)")
        assert expr.evaluate({"a": 2}) == 10
        assert expr.evaluate({"a": 5}) == 20


class TestTransferUsageMerge:
    def test_usage_factor_two_halves_the_rate(self):
        """What a flow charged twice on one resource amounts to."""
        from repro.des import Environment
        from repro.sharing import Activity, FairShareModel, SharedResource

        env = Environment()
        model = FairShareModel(env)
        shared = SharedResource("dual", 1e9)
        model.execute(Activity(1e9, {shared: 2.0}))
        env.run()
        # factor 2: effective rate 0.5e9 → 2 s.
        assert env.now == pytest.approx(2.0)

    def test_zero_resource_route_with_latency_completes(self):
        from repro.des import Environment
        from repro.engine import transfer
        from repro.platform import Route
        from repro.sharing import FairShareModel

        env = Environment()
        model = FairShareModel(env)
        act = transfer(env, model, Route((), 0.5), 1e9)
        env.run()
        # No resources → unbounded rate → immediate completion (loopback).
        assert act.done.triggered


class TestCliRunOptions:
    @pytest.fixture()
    def files(self, tmp_path):
        platform = tmp_path / "p.json"
        platform.write_text(
            json.dumps(
                {
                    "nodes": {"count": 8, "flops": 1e12},
                    "network": {"topology": "star", "bandwidth": 1e10},
                }
            )
        )
        workload = tmp_path / "w.json"
        assert (
            main(
                [
                    "generate",
                    "--output",
                    str(workload),
                    "--num-jobs",
                    "4",
                    "--max-request",
                    "8",
                    "--mean-runtime",
                    "100",
                ]
            )
            == 0
        )
        return platform, workload

    def test_run_with_until(self, files, capsys):
        platform, workload = files
        assert (
            main(
                [
                    "run",
                    "--platform",
                    str(platform),
                    "--workload",
                    str(workload),
                    "--until",
                    "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "completed_jobs" in out

    def test_run_with_interval(self, files, capsys):
        platform, workload = files
        assert (
            main(
                [
                    "run",
                    "--platform",
                    str(platform),
                    "--workload",
                    str(workload),
                    "--interval",
                    "10",
                ]
            )
            == 0
        )


class TestPeriodicStops:
    def test_periodic_process_ends_with_last_job(self, platform):
        """The periodic scheduler loop must not keep the run alive forever."""
        from repro.batch import Simulation

        job = make_job(1, total_flops=8e9, num_nodes=8)  # 1 s
        sim = Simulation(
            platform, [job], algorithm="fcfs", invocation_interval=0.25
        )
        monitor = sim.run()
        assert job.end_time == pytest.approx(1.0)
        # Queue drained; env has at most the final periodic tick pending.
        assert monitor.makespan() == pytest.approx(1.0)


class TestMonitorFinalizeIdempotence:
    def test_double_finalize_is_harmless(self, platform):
        from repro.batch import Simulation

        job = make_job(1, total_flops=8e9, num_nodes=8)
        sim = Simulation(platform, [job], algorithm="fcfs")
        monitor = sim.run()
        before = len(monitor.allocation_series)
        monitor.finalize()
        assert len(monitor.allocation_series) == before + 1  # appends again
        assert monitor.summary().completed_jobs == 1
