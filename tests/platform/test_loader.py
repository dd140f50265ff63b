"""Tests for the JSON platform loader and the Platform aggregate."""

import json

import pytest

from repro.platform import Platform, PlatformError, load_platform, platform_from_dict
from repro.platform import Node, StarTopology


BASE_SPEC = {
    "name": "test-cluster",
    "nodes": {"count": 8, "flops": 1e12, "cores": 4},
    "network": {"topology": "star", "bandwidth": 10e9, "latency": 1e-6},
    "pfs": {"read_bw": 50e9, "write_bw": 40e9},
}


class TestPlatformFromDict:
    def test_basic_star_platform(self):
        p = platform_from_dict(BASE_SPEC)
        assert p.name == "test-cluster"
        assert p.num_nodes == 8
        assert p.total_flops == 8e12
        assert p.pfs is not None
        assert p.pfs.read.capacity == 50e9

    def test_burst_buffers_per_node(self):
        spec = dict(BASE_SPEC)
        spec["burst_buffer"] = {"read_bw": 5e9, "write_bw": 2e9, "capacity": 1e12}
        p = platform_from_dict(spec)
        assert all(n.bb is not None for n in p.nodes)
        assert p.nodes[0].bb.capacity == 1e12
        assert p.nodes[0].bb is not p.nodes[1].bb

    def test_pfs_optional(self):
        spec = {k: v for k, v in BASE_SPEC.items() if k != "pfs"}
        p = platform_from_dict(spec)
        assert p.pfs is None
        with pytest.raises(PlatformError, match="no PFS"):
            p.route_to_pfs(0)

    def test_missing_nodes_key(self):
        with pytest.raises(PlatformError, match="nodes"):
            platform_from_dict({"network": BASE_SPEC["network"]})

    def test_bad_count(self):
        spec = dict(BASE_SPEC)
        spec["nodes"] = {"count": 0, "flops": 1e12}
        with pytest.raises(PlatformError, match="count"):
            platform_from_dict(spec)

    def test_bad_flops(self):
        spec = dict(BASE_SPEC)
        spec["nodes"] = {"count": 4, "flops": -1}
        with pytest.raises(PlatformError, match="flops"):
            platform_from_dict(spec)

    def test_unknown_topology(self):
        spec = dict(BASE_SPEC)
        spec["network"] = {"topology": "hypercube", "bandwidth": 1e9}
        with pytest.raises(PlatformError, match=r"^network\.topology must be one of \[.*\], got \'hypercube\'"):
            platform_from_dict(spec)

    def test_fat_tree_topology(self):
        spec = dict(BASE_SPEC)
        spec["network"] = {"topology": "fat_tree", "bandwidth": 1e9, "arity": 4}
        p = platform_from_dict(spec)
        assert p.route(0, 5).resources

    def test_torus_dims_must_match_count(self):
        spec = dict(BASE_SPEC)
        spec["network"] = {"topology": "torus", "bandwidth": 1e9, "dims": [3, 3]}
        with pytest.raises(PlatformError, match=r"^network\.dims \(3, 3\) give 9 nodes"):
            platform_from_dict(spec)

    def test_torus_valid(self):
        spec = dict(BASE_SPEC)
        spec["network"] = {"topology": "torus", "bandwidth": 1e9, "dims": [2, 4]}
        p = platform_from_dict(spec)
        assert p.num_nodes == 8

    def test_dragonfly_shape_mismatch(self):
        spec = dict(BASE_SPEC)
        spec["network"] = {
            "topology": "dragonfly",
            "bandwidth": 1e9,
            "groups": 2,
            "routers_per_group": 2,
            "nodes_per_router": 3,
        }
        with pytest.raises(PlatformError, match="dragonfly shape"):
            platform_from_dict(spec)

    def test_non_dict_spec(self):
        with pytest.raises(PlatformError):
            platform_from_dict([1, 2, 3])  # type: ignore[arg-type]


class TestLoadPlatform:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(BASE_SPEC))
        p = load_platform(path)
        assert p.num_nodes == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlatformError, match=r"nope\.json: cannot read the file"):
            load_platform(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PlatformError, match=r"broken\.json: not JSON"):
            load_platform(path)


class TestPlatformAggregate:
    def test_dense_indices_enforced(self):
        topo = StarTopology(2, bandwidth=1e9)
        nodes = [Node(0, 1e9), Node(5, 1e9)]
        with pytest.raises(PlatformError, match="dense"):
            Platform(nodes, topo)

    def test_empty_platform_rejected(self):
        topo = StarTopology(1, bandwidth=1e9)
        with pytest.raises(PlatformError):
            Platform([], topo)

    def test_free_nodes_and_utilization(self):
        p = platform_from_dict(BASE_SPEC)
        assert p.num_free_nodes() == 8
        assert p.utilization() == 0.0
        p.nodes[0].allocate("job")
        p.nodes[1].allocate("job")
        assert p.num_free_nodes() == 6
        assert p.utilization() == pytest.approx(0.25)
        assert [n.index for n in p.free_nodes()] == [2, 3, 4, 5, 6, 7]

    def test_failed_idle_node_is_not_utilization(self):
        p = platform_from_dict({**BASE_SPEC, "nodes": {"count": 4, "flops": 1e12}})
        p.nodes[3].fail()
        assert p.num_free_nodes() == 3
        assert p.num_allocated_nodes() == 0
        assert p.utilization() == 0.0
        p.nodes[0].allocate("job")
        assert p.utilization() == pytest.approx(0.25)
