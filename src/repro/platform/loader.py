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

Every field's kind, default and bound — and which ``network`` keys each
topology takes — is tabled in ``docs/API.md`` ("Input formats").
Substitution note (see DESIGN.md): this replaces SimGrid XML platform files
with equal information content.
"""

from __future__ import annotations

from math import inf
from pathlib import Path
from typing import Any, Dict, Union

from repro._input import CHOICE, COUNT, GE0, GE1, GT0, INTEGER, LIST, NUMBER, OBJECT, REQUIRED, TEXT
from repro._input import read, read_json
from repro.platform.components import Node, Pfs, PlatformError
from repro.platform.platform import Platform
from repro.platform.topology import (
    StarTopology,
    Topology,
    build_dragonfly,
    build_fat_tree,
    build_torus,
)

_PLATFORM = (
    ("name", TEXT, "cluster", None),
    ("nodes", OBJECT, REQUIRED, None),
    ("network", OBJECT, REQUIRED, None),
    ("pfs", OBJECT, None, None),
    ("burst_buffer", OBJECT, None, None),
    ("power", OBJECT, None, None),
)
_NODES = (
    ("count", INTEGER, REQUIRED, COUNT),
    ("flops", NUMBER, REQUIRED, GT0),
    ("cores", INTEGER, 1, GE1),
    ("gpus", INTEGER, 0, GE0),
    ("gpu_flops", NUMBER, 0.0, GE0),
)
_STAR = (
    ("topology", CHOICE, "star", ("star", "fat_tree", "torus", "dragonfly")),
    ("bandwidth", NUMBER, REQUIRED, GT0),
    ("latency", NUMBER, 0.0, GE0),
    ("pfs_bandwidth", NUMBER, None, GT0),
)
#: The ``network`` rows of each topology: the star's, plus its builder's own.
_NETWORK = {
    "star": _STAR,
    "fat_tree": _STAR + (("arity", INTEGER, 8, GE1), ("spine_bandwidth", NUMBER, None, GT0)),
    "torus": _STAR + (("dims", LIST, REQUIRED, (INTEGER, GE1)),),
    "dragonfly": _STAR
    + (
        ("groups", INTEGER, REQUIRED, GE1),
        ("routers_per_group", INTEGER, REQUIRED, GE1),
        ("nodes_per_router", INTEGER, REQUIRED, GE1),
        ("local_bandwidth", NUMBER, None, GT0),
        ("global_bandwidth", NUMBER, None, GT0),
    ),
}
_STORAGE = (  # ``pfs`` and ``burst_buffer`` alike
    ("read_bw", NUMBER, REQUIRED, GT0),
    ("write_bw", NUMBER, REQUIRED, GT0),
    ("capacity", NUMBER, inf, GT0),
)
_POWER = (
    ("peak_watts", NUMBER, REQUIRED, GT0),
    ("idle_watts", NUMBER, 0.0, GE0),
    ("corridor_watts", NUMBER, None, GT0),
)


def _build_topology(spec: Dict[str, Any], num_nodes: int) -> Topology:
    kind = spec.get("topology", "star")
    # A topology there is not is read against the star's rows: the first says so.
    table = _NETWORK.get(kind, _STAR) if isinstance(kind, str) else _STAR
    net = read(spec, table, "network", PlatformError)
    common = dict(
        latency=float(net["latency"]),
        pfs_bandwidth=net["pfs_bandwidth"] and float(net["pfs_bandwidth"]),
    )
    bandwidth = float(net["bandwidth"])
    if kind == "star":
        return StarTopology(num_nodes, bandwidth, **common)
    if kind == "fat_tree":
        return build_fat_tree(
            num_nodes,
            arity=net["arity"],
            leaf_bandwidth=bandwidth,
            spine_bandwidth=net["spine_bandwidth"],
            **common,
        )
    if kind == "torus":
        dims = tuple(net["dims"])
        expected = 1
        for d in dims:
            expected *= d
        if expected != num_nodes:
            raise PlatformError(
                f"network.dims {dims} give {expected} nodes, nodes.count is {num_nodes}"
            )
        return build_torus(dims, bandwidth=bandwidth, **common)
    shape = (net["groups"], net["routers_per_group"], net["nodes_per_router"])
    if shape[0] * shape[1] * shape[2] != num_nodes:
        raise PlatformError(
            f"network: dragonfly shape {shape[0]}x{shape[1]}x{shape[2]} != nodes.count {num_nodes}"
        )
    return build_dragonfly(
        *shape,
        node_bandwidth=bandwidth,
        local_bandwidth=net["local_bandwidth"],
        global_bandwidth=net["global_bandwidth"],
        **common,
    )


def _storage(spec: Any, path: str) -> tuple:
    store = read(spec, _STORAGE, path, PlatformError)
    return float(store["read_bw"]), float(store["write_bw"]), float(store["capacity"])


def platform_from_dict(spec: Dict[str, Any]) -> Platform:
    """Build a :class:`Platform` from a parsed JSON description."""
    top = read(spec, _PLATFORM, "", PlatformError)
    node = read(top["nodes"], _NODES, "nodes", PlatformError)
    if node["gpus"] > 0 and node["gpu_flops"] <= 0:
        raise PlatformError("nodes.gpu_flops must be > 0 when nodes.gpus is")

    idle_watts = peak_watts = 0.0
    corridor = None
    if top["power"] is not None:
        power = read(top["power"], _POWER, "power", PlatformError)
        idle_watts, peak_watts = float(power["idle_watts"]), float(power["peak_watts"])
        if idle_watts > peak_watts:
            raise PlatformError(
                f"power.idle_watts must be in [0, peak_watts], got {idle_watts}"
            )
        corridor = power["corridor_watts"] and float(power["corridor_watts"])

    nodes = Node.fleet(
        node["count"],
        float(node["flops"]),
        cores=node["cores"],
        gpus=node["gpus"],
        gpu_flops=float(node["gpu_flops"]),
        burst_buffer=top["burst_buffer"] and _storage(top["burst_buffer"], "burst_buffer"),
        idle_watts=idle_watts,
        peak_watts=peak_watts,
    )
    topology = _build_topology(top["network"], node["count"])
    pfs = None
    if top["pfs"] is not None:
        read_bw, write_bw, capacity = _storage(top["pfs"], "pfs")
        pfs = Pfs(read_bw=read_bw, write_bw=write_bw, capacity=capacity)
    return Platform(nodes, topology, pfs, name=top["name"], power_corridor=corridor)


def load_platform(path: Union[str, Path]) -> Platform:
    """Load a platform description from a JSON file."""
    return platform_from_dict(read_json(path, PlatformError))
