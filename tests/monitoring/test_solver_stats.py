"""Tests for the solver perf-counter snapshot (SolverStats)."""

import pytest

from repro.des import Environment
from repro.monitoring import SolverStats
from repro.sharing import Activity, FairShareModel, SharedResource


def _run_model():
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", 10.0) for i in range(3)]
    for res in resources:
        model.execute(Activity(100.0, {res: 1.0}))
    env.run()
    return model


def test_from_model_snapshots_counters():
    model = _run_model()
    stats = SolverStats.from_model(model)
    assert stats.resolves == model.resolves
    assert stats.solve_events == model.solve_events
    assert stats.solved_activities == model.solved_activities
    assert stats.peak_components == 3
    assert stats.component_count == 0  # everything finished
    assert stats.mean_solve_scope == pytest.approx(
        model.solved_activities / model.resolves
    )
    assert stats.solver_time >= 0.0


def test_as_dict_is_json_shaped():
    stats = SolverStats.from_model(_run_model())
    payload = stats.as_dict()
    assert payload["resolves"] == stats.resolves
    assert payload["mean_solve_scope"] == stats.mean_solve_scope
    assert isinstance(payload["size_histogram"], dict)


def test_mean_solve_scope_zero_when_no_resolves():
    assert SolverStats().mean_solve_scope == 0.0


def test_simulation_attaches_solver_stats():
    from repro import Simulation
    from benchmarks.common import evaluation_workload, reference_platform

    platform = reference_platform(num_nodes=8)
    jobs = evaluation_workload(
        num_jobs=4, seed=1, num_nodes=8, max_request=4, mean_interarrival=5.0
    )
    monitor = Simulation(platform, jobs, algorithm="easy").run()
    assert monitor.solver is not None
    assert monitor.solver.resolves > 0
    assert monitor.solver.solved_activities >= monitor.solver.resolves


@pytest.mark.parametrize("reference", [False, True])
def test_rows_of_shared_components_are_counted_in_members(reference):
    """File-system I/O is one row per fan-out in production; the
    counters, and the tracer's ``solver.resolve`` instants, still speak
    of activities — what the reference engine, which has them, reports."""
    from repro import Simulation
    from repro.tracing import Tracer

    from tests.engine.test_io_cohorts import _io_loop, _job, _spec

    spec = _spec([_job(k + 1, nodes, [_io_loop(2)]) for k, nodes in enumerate([8, 4, 1])])
    tracer = Tracer()
    monitor = Simulation.from_spec(spec, reference=reference).run(trace=tracer)
    stats = monitor.solver
    instants = [r.args for r in tracer.records if r.kind == "solver.resolve"]
    assert sum(args["activities"] for args in instants) == stats.solved_activities == 100
    assert sum(args["components"] for args in instants) == stats.resolves == 40
    # All three jobs read at once: 8 + 4 + 1 activities in one component.
    assert max(args["activities"] for args in instants) == stats.max_solve_scope == 13
    if reference:
        assert stats.fast_solves + stats.vector_solves == stats.resolves
        assert (stats.cohorts_admitted, stats.cohort_members, stats.slot_solves) == (0, 0, 0)
    else:
        assert stats.fast_solves + stats.scalar_solves == stats.resolves
        # Compute fan-outs in the slot table, reads and writes in the file
        # system's components: a row each, none ever given members.
        assert stats.cohorts_admitted == 3 * 2 * 3 and stats.cohorts_dissolved == 0
        assert stats.cohort_members == 3 * 2 * (8 + 4 + 1)
        assert 0 < stats.slot_solves < stats.resolves
