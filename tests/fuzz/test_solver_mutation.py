"""Acceptance: the fuzzer catches a deliberately injected solver bug.

The mutation loosens the max-min kernel's saturation *tie* tolerance from
1e-12 (relative, i.e. "equal up to float drift") to 1e-2: resources that
are merely *near* the limiting ratio get frozen together with it, robbing
their users of their last slice of bandwidth.  This is the classic class
of tie-breaking bug the differential oracle exists for — the production
scalar loop still resolves such near-ties exactly, so the two engines
diverge on any scenario where a second resource sits within 1% of
saturation at a freeze round.  (The mutant lives in the reference
engine's numpy kernel, ``repro.sharing._reference``; the oracle compares
whole runs, so which side holds the bug makes no difference to it.)

The test requires the whole kill chain to work: a bounded seed search
finds a triggering scenario, the differential oracle reports it, and the
shrinker reduces it to a minimal reproducer (<= 3 jobs on <= 8 nodes)
that still fails under the mutant and passes on the clean engine.
"""

import inspect

import pytest

import repro.sharing._reference as reference_kernel
from repro.fuzz import check_scenario, generate_scenario, shrink_failure
from repro.fuzz.runner import FuzzFailure

#: The exact source line being mutated; if the kernel changes shape, this
#: assertion failing is the signal to re-derive the mutation, not to
#: delete the test.
TIE_TOLERANCE_LINE = "sat_tol = np.maximum(1e-12, 1e-12 * caps_arr)"
MUTATED_LINE = "sat_tol = np.maximum(1e-12, 1e-1 * caps_arr)"

SEED_SEARCH_BOUND = 50


@pytest.fixture()
def mutated_vector_kernel(monkeypatch):
    source = inspect.getsource(reference_kernel._solve_vector)
    assert TIE_TOLERANCE_LINE in source, (
        "max-min kernel changed; update the injected mutation"
    )
    namespace = dict(vars(reference_kernel))
    exec(  # noqa: S102 - building the mutant from audited source
        compile(source.replace(TIE_TOLERANCE_LINE, MUTATED_LINE),
                "<mutant>", "exec"),
        namespace,
    )
    monkeypatch.setattr(
        reference_kernel, "_solve_vector", namespace["_solve_vector"]
    )


def _find_caught_case():
    for seed in range(SEED_SEARCH_BOUND):
        scenario = generate_scenario(seed)
        failures = check_scenario(scenario, ["differential"])
        if failures:
            return scenario, failures
    return None, None


def test_differential_oracle_catches_and_shrinks_mutant(mutated_vector_kernel):
    scenario, failures = _find_caught_case()
    assert scenario is not None, (
        f"mutant survived {SEED_SEARCH_BOUND} fuzz seeds — the differential "
        "oracle lost its teeth"
    )
    assert failures[0].oracle == "differential"

    small, evals = shrink_failure(
        FuzzFailure(
            seed=scenario["seed"],
            algorithm=scenario["algorithm"],
            scenario=scenario,
            failures=failures,
        )
    )
    jobs = small["workload"]["inline"]["jobs"]
    assert len(jobs) <= 3, f"reproducer kept {len(jobs)} jobs"
    assert small["platform"]["nodes"]["count"] <= 8, (
        f"reproducer kept {small['platform']['nodes']['count']} nodes"
    )
    # Still a reproducer under the mutant...
    assert any(
        f.oracle == "differential"
        for f in check_scenario(small, ["differential"])
    )


def test_clean_engine_passes_what_the_mutant_fails():
    # The same search space is oracle-clean without the mutation (the
    # smoke sweep covers breadth; this pins the specific seeds the
    # mutation test leans on).
    for seed in range(10):
        assert check_scenario(generate_scenario(seed), ["differential"]) == []
