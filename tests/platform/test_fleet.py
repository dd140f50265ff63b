"""The lazy node fleet against an eagerly hand-built platform.

A loader-built platform builds node *i* — its resources, its back-pointer,
its star links — the first time something reaches index *i*.  These tests
pin that it is indistinguishable from the list of nodes it replaced except
in what it costs: a differential script against ``Platform([Node(...), ...],
StarTopology(...))``, the exact set of nodes a run builds, parameter checks
that fire at construction, stable names, and snapshot/resume on a machine
the workload only touches a corner of.
"""

import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import Simulation
from repro.fuzz import generate_scenario
from repro.platform import (
    BurstBuffer,
    Node,
    Pfs,
    Platform,
    PlatformError,
    StarTopology,
    platform_from_dict,
)

from tests.replay.helpers import ENGINES
from tests.replay.test_property import _check

N = 12
JOB = SimpleNamespace(jid=7, name="job")


def _spec(count, *, burst_buffer=False, gpus=0):
    spec = {
        "nodes": {"count": count, "flops": 1e12, "gpus": gpus, "gpu_flops": 2e12},
        "network": {"topology": "star", "bandwidth": 1e10, "latency": 1e-6,
                    "pfs_bandwidth": 2e11},
        "pfs": {"read_bw": 1e11, "write_bw": 8e10},
    }  # fmt: skip
    if burst_buffer:
        spec["burst_buffer"] = {"read_bw": 5e9, "write_bw": 2e9, "capacity": 1e12}
    return spec


def _eager(count, *, burst_buffer=False, gpus=0):
    """The same machine as ``_spec``, every node built by hand up front."""
    nodes = [
        Node(
            i, 1e12, gpus=gpus, gpu_flops=2e12,
            bb=BurstBuffer(f"node{i:04d}.bb", 5e9, 2e9, 1e12) if burst_buffer else None,
        )
        for i in range(count)
    ]  # fmt: skip
    return Platform(nodes, StarTopology(count, 1e10, 1e-6, 2e11), Pfs(1e11, 8e10))


def _res(resource):
    return None if resource is None else (resource.name, resource.capacity)


def _node(node):
    bb = node.bb
    return (
        node.index, node.name, node.state, node.failed, node.assigned_job,
        node.flops, node.gpus, _res(node.cpu), _res(node.gpu), _res(node.up), _res(node.down),
        bb and (bb.name, _res(bb.read), _res(bb.write), bb.capacity),
    )  # fmt: skip


def _route(route):
    return [_res(r) for r in route.resources], route.latency


_index = st.integers(min_value=0, max_value=N - 1)
_bound = st.one_of(st.none(), st.integers(min_value=-N - 2, max_value=N + 2))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("index"), st.integers(min_value=-N, max_value=N - 1)),
        st.tuples(st.just("slice"), _bound, _bound, st.sampled_from([None, 1, 2, -1, -3])),
        st.tuples(st.just("iterate"), st.integers(min_value=0, max_value=N)),
        st.tuples(st.sampled_from(["allocate", "deallocate", "fail", "repair"]), _index),
        st.tuples(st.just("route"), _index, _index),
        st.tuples(st.sampled_from(["route_to_pfs", "route_from_pfs"]), _index),
        st.tuples(st.just("free_slice"), st.integers(min_value=0, max_value=N)),
        st.tuples(st.just("free_list")),
    ),
    max_size=40,
)


def _apply(platform, op):
    """Run one script step; what it returned (nodes / routes) and the node indices it reached."""
    kind, *args = op
    nodes = platform.nodes
    if kind == "index":
        node = nodes[args[0]]
        assert nodes[args[0]] is node
        return [node], {node.index}
    if kind == "slice":
        picked = nodes[slice(*args)]
        assert isinstance(picked, list)
        return picked, {node.index for node in picked}
    if kind == "iterate":
        picked = list(itertools.islice(nodes, args[0]))
        return picked, set(range(args[0]))
    if kind in ("allocate", "deallocate", "fail", "repair"):
        node = nodes[args[0]]
        if kind == "allocate" and node.state.value == "free":
            node.allocate(JOB)
        elif kind == "deallocate" and node.state.value == "allocated":
            node.deallocate()
        elif kind == "fail":
            node.fail()
        elif kind == "repair":
            node.repair()
        return [node], {node.index}
    if kind == "free_slice":
        picked = platform.free_nodes()[: args[0]]
        return picked, {node.index for node in picked}
    if kind == "free_list":
        picked = list(platform.free_nodes())
        return picked, {node.index for node in picked}
    return getattr(platform, kind)(*args), set()


@settings(max_examples=120, deadline=None)
@given(ops=_ops, burst_buffer=st.booleans(), gpus=st.sampled_from([0, 2]))
def test_lazy_fleet_matches_a_hand_built_platform(ops, burst_buffer, gpus):
    lazy = platform_from_dict(_spec(N, burst_buffer=burst_buffer, gpus=gpus))
    eager = _eager(N, burst_buffer=burst_buffer, gpus=gpus)
    assert lazy.nodes.built == 0 and eager.nodes.built == N
    reached = set()
    routed = set()
    for op in ops:
        got, touched = _apply(lazy, op)
        want, _ = _apply(eager, op)
        reached |= touched
        if op[0].startswith("route"):
            assert _route(got) == _route(want)
            if got.resources:  # a loopback route crosses no link
                routed.update(op[1:])
        else:
            assert [_node(node) for node in got] == [_node(node) for node in want]
        assert lazy.num_free_nodes() == eager.num_free_nodes() == len(lazy.free_nodes())
        assert lazy.num_allocated_nodes() == eager.num_allocated_nodes()
        assert lazy.utilization() == eager.utilization()
        # A step builds what it reaches and nothing else; a route builds
        # links, never nodes.
        assert lazy.nodes.built == len(reached)
        links = lazy.topology._links
        assert {i for i, pair in enumerate(links) if pair is not None} == reached | routed
        for i in reached:
            node = lazy.nodes[i]
            assert node._pool is lazy
            assert node.up is lazy.route(i, (i + 1) % N).resources[0]
            assert node.down is lazy.route((i + 1) % N, i).resources[1]
            assert node.up is lazy.route_to_pfs(i).resources[0]
            assert node.down is lazy.route_from_pfs(i).resources[1]
            routed.add((i + 1) % N)
    assert len(lazy.nodes) == len(eager.nodes) == N
    assert [_node(n) for n in lazy.free_nodes()] == [_node(n) for n in eager.free_nodes()]
    assert [_res(r) for r in lazy.shared_resources()] == [
        _res(r) for r in eager.shared_resources()
    ]
    assert lazy.capture_state() == eager.capture_state()
    assert [_node(n) for n in lazy.nodes] == [_node(n) for n in eager.nodes]
    assert lazy.nodes.built == N and None not in lazy.topology._links
    with pytest.raises(IndexError):
        lazy.nodes[N]
    with pytest.raises(IndexError):
        lazy.nodes[-N - 1]


def test_a_run_builds_exactly_the_nodes_it_allocates():
    jobs = [
        {
            "name": f"j{k}", "type": "rigid", "submit_time": 10.0 * k, "num_nodes": request,
            "application": {"phases": [{"iterations": 2, "tasks": [
                {"type": "cpu", "flops": 1e12}, {"type": "pfs_write", "bytes": 1e9},
            ]}]},
        }
        for k, request in enumerate([64, 16, 200])
    ]  # fmt: skip
    sim = Simulation.from_spec(
        {"platform": _spec(10_000), "workload": {"inline": {"jobs": jobs}}, "algorithm": "easy"}
    )
    platform = sim.batch.platform
    assert platform.nodes.built == 0
    monitor = sim.run()
    assert monitor.summary().completed_jobs == 3
    allocated = {
        index
        for segments in monitor._segments.values()
        for segment in segments
        for index in segment.node_indices
    }
    assert 200 <= len(allocated) <= 280
    slots = platform.nodes._nodes
    assert {i for i, node in enumerate(slots) if node is not None} == allocated
    assert platform.nodes.built == len(allocated)
    links = platform.topology._links
    assert {i for i, pair in enumerate(links) if pair is not None} == allocated
    assert links.count(None) == 10_000 - len(allocated)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flops": 0.0},
        {"flops": 1e12, "gpus": 2, "gpu_flops": 0.0},
        {"flops": 1e12, "idle_watts": 200.0, "peak_watts": 100.0},
        {"flops": 1e12, "burst_buffer": (0.0, 2e9, 1e12)},
        {"flops": 1e12, "burst_buffer": (5e9, -1.0, 1e12)},
        {"flops": 1e12, "burst_buffer": (5e9, 2e9, 0.0)},
    ],
)
def test_fleet_parameters_are_checked_at_construction(kwargs):
    with pytest.raises(PlatformError):
        Node.fleet(1_000, **kwargs)


@pytest.mark.parametrize(
    "section,value",
    [
        ("nodes", {"count": 1_000, "flops": -1.0}),
        ("nodes", {"count": 1_000, "flops": 1e12, "gpus": 1, "gpu_flops": 0.0}),
        ("power", {"idle_watts": 200.0, "peak_watts": 100.0}),
        ("burst_buffer", {"read_bw": 0.0, "write_bw": 2e9}),
        ("burst_buffer", {"read_bw": 5e9, "write_bw": -2e9}),
        ("network", {"topology": "star", "bandwidth": 0.0}),
    ],
)
def test_loader_rejects_bad_fleets_before_any_node_exists(section, value):
    spec = _spec(1_000)
    spec[section] = value
    with pytest.raises(PlatformError):
        platform_from_dict(spec)


def test_star_bandwidth_is_checked_at_construction():
    with pytest.raises(PlatformError, match="bandwidth"):
        StarTopology(4, bandwidth=0.0)


def test_names_are_the_ones_eager_construction_produced():
    platform = platform_from_dict(_spec(40_000, burst_buffer=True, gpus=1))
    node = platform.nodes[12_345]
    assert node.name == "node12345"
    assert node.cpu.name == "node12345.cpu"
    assert node.gpu.name == "node12345.gpu"
    assert node.up.name == "node12345.up"
    assert node.down.name == "node12345.down"
    assert node.bb.name == "node12345.bb"
    assert node.bb.read.name == "node12345.bb.read"
    assert node.bb.write.name == "node12345.bb.write"
    assert platform.nodes[7].name == "node0007"
    assert platform.route_to_pfs(39_999).resources[0].name == "node39999.up"
    assert platform.nodes.built == 2


def test_uniform_fleet_answers_power_questions_without_building():
    spec = _spec(5_000)
    assert not platform_from_dict(spec).power_enabled
    spec["power"] = {"idle_watts": 100.0, "peak_watts": 350.0, "corridor_watts": 9e5}
    platform = platform_from_dict(spec)
    assert platform.power_enabled
    assert platform.power_profile() == {"idle": 100.0, "peak": 350.0, "corridor": 9e5}
    assert platform.nodes.built == 0


@pytest.mark.parametrize("need", [0, 1, 3, 5, 9])
def test_max_start_power_is_the_sorted_prefix_sum(need):
    watts = [(100.0, 350.0), (50.0, 420.5), (80.0, 80.0), (120.0, 333.3), (10.0, 400.1)]
    nodes = [Node(i, 1e12, idle_watts=idle, peak_watts=peak) for i, (idle, peak) in enumerate(watts)]
    mixed = Platform(nodes, StarTopology(5, 1e10))
    steps = sorted((peak - idle for idle, peak in watts), reverse=True)
    assert mixed.max_start_power(need) == sum(steps[:need])
    spec = _spec(5)
    spec["power"] = {"idle_watts": 100.0, "peak_watts": 350.5}
    uniform = platform_from_dict(spec)
    assert uniform.max_start_power(need) == sum([350.5 - 100.0] * min(need, 5))
    assert uniform.nodes.built == 0


#: A fuzz scenario on a star without power accounting (the meter's
#: per-node table would build every node at construction) whose run is
#: long enough to checkpoint, with failures, requeues and restarts in it.
_RESUME_SEED = 2


@pytest.mark.parametrize("reference", ENGINES)
def test_resume_on_a_partially_built_machine_is_byte_identical(reference):
    scenario = generate_scenario(_RESUME_SEED, algorithm="easy")
    assert scenario["platform"]["network"]["topology"] == "star"
    assert "power" not in scenario["platform"]
    scenario["platform"]["nodes"]["count"] = 2_000
    cold = Simulation.from_spec(json.loads(json.dumps(scenario)))
    cold.run()
    assert 0 < cold.batch.platform.nodes.built < 2_000
    assert _check(_RESUME_SEED, 0.5, reference, widen=2_000)
