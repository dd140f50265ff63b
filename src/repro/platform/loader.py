"""JSON platform descriptions → Platform objects.

Format (all bandwidths bytes/s, flops flops/s, latencies seconds)::

    {
      "name": "demo-cluster",
      "nodes": {"count": 128, "flops": 1e12, "cores": 48},
      "network": {"topology": "star", "bandwidth": 12.5e9, "latency": 1e-6,
                  "pfs_bandwidth": 100e9},
      "pfs": {"read_bw": 100e9, "write_bw": 80e9},
      "burst_buffer": {"read_bw": 5e9, "write_bw": 2e9, "capacity": 1.5e12},
      "power": {"idle_watts": 100, "peak_watts": 350, "corridor_watts": 30e3}
    }

``network.topology`` ∈ {"star", "fat_tree", "torus", "dragonfly"}; the
non-star variants accept their builder's keyword arguments (e.g. ``arity``
for fat trees, ``dims`` for tori).  ``pfs``, ``burst_buffer`` and
``power`` are optional; ``power`` gives every node the same idle/peak
draw (watts) and may declare a system-wide ``corridor_watts`` cap for
corridor-aware schedulers (see :doc:`docs/HYBRID`).  Substitution note (see DESIGN.md): this replaces SimGrid XML
platform files with equal information content.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.platform.components import Node, Pfs, PlatformError
from repro.platform.platform import Platform
from repro.platform.topology import (
    StarTopology,
    Topology,
    build_dragonfly,
    build_fat_tree,
    build_torus,
)


def _require(mapping: Dict[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise PlatformError(f"Missing required key {key!r} in {context}")
    return mapping[key]


def _positive_number(value: Any, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise PlatformError(f"{name} must be a number, got {value!r}")
    if value <= 0:
        raise PlatformError(f"{name} must be > 0, got {value}")
    return float(value)


def _build_topology(spec: Dict[str, Any], num_nodes: int) -> Topology:
    kind = spec.get("topology", "star")
    bandwidth = _positive_number(_require(spec, "bandwidth", "network"), "network.bandwidth")
    latency = float(spec.get("latency", 0.0))
    if latency < 0:
        raise PlatformError(f"network.latency must be >= 0, got {latency}")
    pfs_bandwidth = spec.get("pfs_bandwidth")
    if pfs_bandwidth is not None:
        pfs_bandwidth = _positive_number(pfs_bandwidth, "network.pfs_bandwidth")

    if kind == "star":
        return StarTopology(num_nodes, bandwidth, latency, pfs_bandwidth)
    if kind == "fat_tree":
        return build_fat_tree(
            num_nodes,
            arity=int(spec.get("arity", 8)),
            leaf_bandwidth=bandwidth,
            spine_bandwidth=spec.get("spine_bandwidth"),
            latency=latency,
            pfs_bandwidth=pfs_bandwidth,
        )
    if kind == "torus":
        dims = tuple(_require(spec, "dims", "network (torus)"))
        expected = 1
        for d in dims:
            expected *= d
        if expected != num_nodes:
            raise PlatformError(
                f"torus dims {dims} give {expected} nodes, platform has {num_nodes}"
            )
        return build_torus(dims, bandwidth=bandwidth, latency=latency,
                           pfs_bandwidth=pfs_bandwidth)
    if kind == "dragonfly":
        groups = int(_require(spec, "groups", "network (dragonfly)"))
        routers = int(_require(spec, "routers_per_group", "network (dragonfly)"))
        per_router = int(_require(spec, "nodes_per_router", "network (dragonfly)"))
        if groups * routers * per_router != num_nodes:
            raise PlatformError(
                f"dragonfly shape {groups}x{routers}x{per_router} != {num_nodes} nodes"
            )
        return build_dragonfly(
            groups,
            routers,
            per_router,
            node_bandwidth=bandwidth,
            local_bandwidth=spec.get("local_bandwidth"),
            global_bandwidth=spec.get("global_bandwidth"),
            latency=latency,
            pfs_bandwidth=pfs_bandwidth,
        )
    raise PlatformError(
        f"Unknown topology {kind!r}; expected star/fat_tree/torus/dragonfly"
    )


def platform_from_dict(spec: Dict[str, Any]) -> Platform:
    """Build a :class:`Platform` from a parsed JSON description."""
    if not isinstance(spec, dict):
        raise PlatformError(f"Platform spec must be an object, got {type(spec).__name__}")
    name = spec.get("name", "cluster")

    node_spec = _require(spec, "nodes", "platform")
    count = node_spec.get("count")
    if not isinstance(count, int) or count < 1:
        raise PlatformError(f"nodes.count must be a positive integer, got {count!r}")
    flops = _positive_number(_require(node_spec, "flops", "nodes"), "nodes.flops")
    cores = int(node_spec.get("cores", 1))
    gpus = int(node_spec.get("gpus", 0))
    gpu_flops = float(node_spec.get("gpu_flops", 0.0))

    power_spec = spec.get("power")
    idle_watts = 0.0
    peak_watts = 0.0
    corridor = None
    if power_spec is not None:
        if not isinstance(power_spec, dict):
            raise PlatformError(
                f"power must be an object, got {type(power_spec).__name__}"
            )
        peak_watts = _positive_number(
            _require(power_spec, "peak_watts", "power"), "power.peak_watts"
        )
        idle_raw = power_spec.get("idle_watts", 0.0)
        if not isinstance(idle_raw, (int, float)) or isinstance(idle_raw, bool):
            raise PlatformError(f"power.idle_watts must be a number, got {idle_raw!r}")
        idle_watts = float(idle_raw)
        if not 0 <= idle_watts <= peak_watts:
            raise PlatformError(
                f"power.idle_watts must be in [0, peak_watts], got {idle_watts}"
            )
        if "corridor_watts" in power_spec:
            corridor = _positive_number(
                power_spec["corridor_watts"], "power.corridor_watts"
            )
        unknown = sorted(set(power_spec) - {"idle_watts", "peak_watts", "corridor_watts"})
        if unknown:
            raise PlatformError(f"power: unknown keys {unknown}")

    burst_buffer = None
    bb_spec = spec.get("burst_buffer")
    if bb_spec is not None:
        burst_buffer = (
            _positive_number(_require(bb_spec, "read_bw", "burst_buffer"), "burst_buffer.read_bw"),
            _positive_number(
                _require(bb_spec, "write_bw", "burst_buffer"), "burst_buffer.write_bw"
            ),
            _positive_number(bb_spec.get("capacity", float("inf")), "burst_buffer.capacity"),
        )
    nodes = Node.fleet(
        count,
        flops,
        cores=cores,
        gpus=gpus,
        gpu_flops=gpu_flops,
        burst_buffer=burst_buffer,
        idle_watts=idle_watts,
        peak_watts=peak_watts,
    )

    network_spec = _require(spec, "network", "platform")
    topology = _build_topology(network_spec, count)

    pfs = None
    pfs_spec = spec.get("pfs")
    if pfs_spec is not None:
        pfs = Pfs(
            read_bw=_positive_number(
                _require(pfs_spec, "read_bw", "pfs"), "pfs.read_bw"
            ),
            write_bw=_positive_number(
                _require(pfs_spec, "write_bw", "pfs"), "pfs.write_bw"
            ),
            capacity=float(pfs_spec.get("capacity", float("inf"))),
        )

    return Platform(nodes, topology, pfs, name=name, power_corridor=corridor)


def load_platform(path: Union[str, Path]) -> Platform:
    """Load a platform description from a JSON file."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except FileNotFoundError:
        raise PlatformError(f"Platform file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise PlatformError(f"Invalid JSON in {path}: {exc}") from exc
    return platform_from_dict(spec)
