"""Bit-exactness of the reference engine's numpy max-min kernel vs the
production scalar loop.

PR 2's campaign result cache keys on byte-identical run records, so the
numpy kernel may not merely be *close* to the scalar progressive-filling
loop — every rate must be the same float, produced by the same freeze
order and tie-breaking.  The property test below generates adversarial
component graphs (shared resources, zero-weight-like tiny weights,
unbounded activities, infinite capacities) and compares all three kernels
(`_solve_scalar`, `_solve_vector`, `_solve_single`) for exact equality.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sharing import Activity, SharedResource, solve_max_min
from repro.sharing._reference import _solve_vector
from repro.sharing._reference import solve_max_min as solve_reference
from repro.sharing.model import _solve_scalar, _solve_single

_capacities = st.one_of(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.just(math.inf),
)
_factors = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
_weights = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
_bounds = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.just(math.inf),
)


@st.composite
def _components(draw, min_acts=2, max_acts=40):
    """A random activity/resource component, adversarially shaped."""
    num_resources = draw(st.integers(min_value=1, max_value=6))
    resources = [
        SharedResource(f"r{i}", draw(_capacities)) for i in range(num_resources)
    ]
    num_acts = draw(st.integers(min_value=min_acts, max_value=max_acts))
    acts = []
    for _ in range(num_acts):
        # Possibly no usages at all: rate is then bound-only (or infinite).
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_resources - 1),
                max_size=3,
                unique=True,
            )
        )
        usages = {resources[i]: draw(_factors) for i in indices}
        acts.append(
            Activity(1.0, usages, weight=draw(_weights), bound=draw(_bounds))
        )
    return acts


def _rates(solver, acts):
    for act in acts:
        act.rate = 0.0
    solver(acts)
    return [act.rate for act in acts]


def _assert_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        # Exact float identity — not approx — including inf; repr also
        # catches a -0.0 vs 0.0 divergence.
        assert repr(x) == repr(y)


@settings(max_examples=200, deadline=None)
@given(acts=_components())
def test_vector_kernel_bit_identical_to_scalar(acts):
    scalar = _rates(_solve_scalar, acts)
    vector = _rates(_solve_vector, acts)
    _assert_identical(scalar, vector)


@settings(max_examples=100, deadline=None)
@given(acts=_components(min_acts=1, max_acts=1))
def test_single_fast_path_bit_identical_to_scalar(acts):
    scalar = _rates(_solve_scalar, acts)
    fast = _rates(lambda a: _solve_single(a[0]), acts)
    _assert_identical(scalar, fast)


@settings(max_examples=100, deadline=None)
@given(acts=_components())
def test_public_api_dispatch_is_equivalent(acts):
    scalar = _rates(solve_max_min, acts)
    vector = _rates(solve_reference, acts)
    _assert_identical(scalar, vector)


def test_dispatch_paths_and_default():
    r = SharedResource("r", 100.0)

    # Nothing to solve, or one activity: the reference defers to production.
    for solve in (solve_max_min, solve_reference):
        assert solve([]) == "scalar"
        assert solve([Activity(1.0, {r: 1.0})]) == "fast"

    # No size rule: each engine has one kernel for two or more.
    for size in (2, 31, 32, 33, 512):
        acts = [Activity(1.0, {r: 1.0}) for _ in range(size)]
        assert solve_max_min(acts) == "scalar"
        assert solve_reference(acts) == "vector"
        # All activities identical: everyone gets capacity / n either way.
        for act in acts:
            assert act.rate == pytest.approx(100.0 / size)


def test_infinite_capacity_and_unbounded_rates_agree():
    # capacity=inf makes the saturation tolerance infinite — a historical
    # scalar-loop quirk the vector kernel must replicate, not fix.
    free = SharedResource("free", math.inf)
    tight = SharedResource("tight", 10.0)
    acts = [
        Activity(1.0, {free: 1.0}),
        Activity(1.0, {free: 2.0, tight: 1.0}),
        Activity(1.0, {}, bound=5.0),
        Activity(1.0, {}),  # no usages, no bound: rate must become inf
    ]
    scalar = _rates(_solve_scalar, acts)
    vector = _rates(_solve_vector, acts)
    _assert_identical(scalar, vector)
    assert scalar[3] == math.inf
    assert scalar[2] == 5.0
