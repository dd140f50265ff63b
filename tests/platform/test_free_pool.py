"""The platform's incremental free/allocated indices vs a brute-force scan.

``Platform.free_nodes()`` used to scan all nodes per call; it now maintains
sorted indices updated from node state transitions.  These tests drive
random allocate/deallocate/fail/repair sequences and assert the indices
always match what a full scan would report — and that the read-only view
``free_nodes()`` returns behaves, for every access the schedulers make,
like the materialised list it replaced.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.platform import Node, Platform, PlatformError
from repro.platform.topology import StarTopology


def _platform(num_nodes: int) -> Platform:
    nodes = [Node(i, 1e12) for i in range(num_nodes)]
    return Platform(nodes, StarTopology(num_nodes, bandwidth=1e10, latency=1e-6))


def _check_consistency(platform: Platform) -> None:
    scan_free = [n for n in platform.nodes if n.free]
    assert list(platform.free_nodes()) == scan_free
    assert platform.num_free_nodes() == len(scan_free)
    assert platform.num_allocated_nodes() == sum(
        1 for n in platform.nodes if n.assigned_job is not None
    )


def _apply(platform: Platform, op: str, index: int) -> None:
    node = platform.nodes[index]
    if op == "allocate" and node.state.value == "free":
        node.allocate(object())
    elif op == "deallocate" and node.state.value == "allocated":
        node.deallocate()
    elif op == "fail":
        node.fail()
    elif op == "repair":
        node.repair()


_ops = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "deallocate", "fail", "repair"]),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=60,
)


def test_initial_pool_is_all_nodes():
    platform = _platform(8)
    _check_consistency(platform)
    assert platform.num_free_nodes() == 8


def test_allocate_and_fail_interact():
    platform = _platform(4)
    job = object()
    node = platform.nodes[1]
    node.allocate(job)
    _check_consistency(platform)
    # Failing an allocated node: stays allocated, stays out of free pool.
    node.fail()
    _check_consistency(platform)
    node.deallocate()
    _check_consistency(platform)
    assert node.index not in [n.index for n in platform.free_nodes()]
    node.repair()
    _check_consistency(platform)
    assert node.index in [n.index for n in platform.free_nodes()]


def test_double_allocate_keeps_indices_exact():
    platform = _platform(2)
    platform.nodes[0].allocate(object())
    with pytest.raises(PlatformError):
        platform.nodes[0].allocate(object())
    _check_consistency(platform)


@settings(max_examples=80, deadline=None)
@given(ops=_ops)
def test_random_transitions_match_brute_force(ops):
    platform = _platform(10)
    for op, index in ops:
        _apply(platform, op, index)
        _check_consistency(platform)


@settings(max_examples=80, deadline=None)
@given(
    ops=_ops,
    a=st.integers(min_value=-12, max_value=12),
    b=st.integers(min_value=-12, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_free_view_reads_like_the_materialised_list(ops, a, b, seed):
    platform = _platform(10)
    for op, index in ops:
        _apply(platform, op, index)
        view = platform.free_nodes()
        expected = [n for n in platform.nodes if n.free]  # the old list
        assert len(view) == len(expected)
        assert bool(view) == bool(expected)
        assert list(view) == expected
        assert view[a:b] == expected[a:b]
        assert view[:a] == expected[:a]
        assert view[::2] == expected[::2]
        assert isinstance(view[a:b], list)
        if expected:
            assert view[0] is expected[0]
            assert view[-1] is expected[-1]
            assert view[a % len(expected)] is expected[a % len(expected)]
        with pytest.raises(IndexError):
            view[len(expected)]
        k = seed % (len(expected) + 1)
        assert random.Random(seed).sample(view, k) == random.Random(seed).sample(
            expected, k
        )


@settings(max_examples=60, deadline=None)
@given(before=_ops, after=_ops)
def test_held_free_view_keeps_its_contents(before, after):
    platform = _platform(10)
    for op, index in before:
        _apply(platform, op, index)
    held = platform.free_nodes()
    contents = list(held)
    for op, index in after:
        _apply(platform, op, index)
        assert list(held) == contents
        assert len(held) == len(contents)
        assert held[:3] == contents[:3]
    _check_consistency(platform)
