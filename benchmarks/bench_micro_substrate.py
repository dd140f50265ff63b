"""Microbenchmarks of the simulation substrate (supporting data for E5).

Measures the DES kernel's raw event throughput and the fair-share solver's
cost at various activity counts — the two components E5's end-to-end
numbers decompose into.  Run with real repetition (these are fast), so the
pytest-benchmark statistics are meaningful here.
"""

import json
import subprocess
import sys
import time

import pytest

from repro import Simulation
from repro.des import Environment
from repro.monitoring import SolverStats
from repro.sharing import Activity, FairShareModel, SharedResource, solve_max_min

from benchmarks.common import (
    print_table,
    profiled_calls,
    reference_platform_dict,
    write_bench_json,
)


@pytest.mark.benchmark(group="micro-des")
def test_micro_event_throughput(benchmark):
    """Schedule-and-process cost of 10k timeout events."""

    def run():
        env = Environment()

        def proc(env):
            for _ in range(100):
                yield env.timeout(1.0)

        for _ in range(100):
            env.process(proc(env))
        env.run()
        return env.processed_events

    events = benchmark(run)
    assert events >= 10_000


@pytest.mark.benchmark(group="micro-des")
def test_micro_process_spawn_cost(benchmark):
    """Creating and completing 5k trivial processes."""

    def run():
        env = Environment()

        def proc(env):
            yield env.timeout(0)

        for _ in range(5000):
            env.process(proc(env))
        env.run()
        return env.processed_events

    benchmark(run)


@pytest.mark.benchmark(group="micro-solver")
@pytest.mark.parametrize("n_activities", [10, 100, 1000])
def test_micro_solver_single_resource(benchmark, n_activities):
    """Progressive filling with n activities on one shared resource."""
    resource = SharedResource("r", 1e9)
    activities = [Activity(1.0, {resource: 1.0}) for _ in range(n_activities)]

    def run():
        solve_max_min(activities)
        return activities[0].rate

    rate = benchmark(run)
    assert rate == pytest.approx(1e9 / n_activities)


@pytest.mark.benchmark(group="micro-solver")
def test_micro_solver_sparse_mesh(benchmark):
    """200 flows over 100 links, 2 links per flow (network-like shape)."""
    links = [SharedResource(f"l{i}", 1e9) for i in range(100)]
    activities = [
        Activity(1.0, {links[i % 100]: 1.0, links[(i * 7 + 3) % 100]: 1.0})
        for i in range(200)
    ]

    def run():
        solve_max_min(activities)

    benchmark(run)


@pytest.mark.benchmark(group="micro-model")
def test_micro_model_churn(benchmark):
    """End-to-end model churn: 500 staggered activities on 32 resources."""

    def run():
        env = Environment()
        model = FairShareModel(env)
        resources = [SharedResource(f"r{i}", 1e9) for i in range(32)]

        def submit(env, i):
            yield env.timeout(i * 0.01)
            act = Activity(1e7, {resources[i % 32]: 1.0})
            model.execute(act)
            yield act.done

        for i in range(500):
            env.process(submit(env, i))
        env.run()
        return model.resolves

    resolves = benchmark(run)
    assert resolves > 0


def _component_churn(num_nodes: int = 512):
    """K disjoint per-node jobs churning while one shared-PFS component
    stays hot — the scenario the component partition exists for.

    Returns (wall seconds, model).
    """
    env = Environment()
    model = FairShareModel(env)
    nodes = [SharedResource(f"n{i}", 1e9) for i in range(num_nodes)]
    pfs = SharedResource("pfs", 1e10)

    def job(env, i):
        # Work sized so hundreds of jobs overlap: each start/finish event
        # perturbs exactly one single-activity component.
        yield env.timeout(i * 0.01)
        for _ in range(4):
            act = Activity(1e9 * (1 + (i % 7) * 0.13), {nodes[i]: 1.0})
            model.execute(act)
            yield act.done

    def stream(env, i):
        yield env.timeout(i * 0.05)
        for _ in range(8):
            act = Activity(2e9, {pfs: 1.0})
            model.execute(act)
            yield act.done

    for i in range(num_nodes):
        env.process(job(env, i))
    for i in range(16):
        env.process(stream(env, i))
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, model


@pytest.mark.benchmark(group="micro-model")
def test_micro_component_churn(benchmark):
    """Component-scoped solves on disjoint churn.

    A global solve pays O(total activities) per event (a mean scope of
    ≈ 320 activities here, docs/PERFORMANCE.md); the partitioned solver
    pays O(touched component).  With 512 disjoint jobs that gap is the
    paper's E5 scalability claim in microcosm.
    """
    wall, model = benchmark.pedantic(_component_churn, rounds=1, iterations=1)

    header = [
        "solver",
        "wall_s",
        "events",
        "resolves",
        "solved_activities",
        "mean_solve_scope",
        "peak_components",
        "solver_time_s",
    ]
    mean_scope = model.solved_activities / model.resolves
    rows = [
        [
            "incremental (component-partitioned)",
            wall,
            model.env.processed_events,
            model.resolves,
            model.solved_activities,
            mean_scope,
            model.peak_components,
            model.solver_time,
        ],
    ]
    print_table("micro: component churn (512 disjoint jobs + hot PFS component)", header, rows)
    write_bench_json(
        "MICRO_CHURN",
        title="component churn, 512 disjoint jobs + hot PFS component",
        header=header,
        rows=rows,
    )

    # The partition must actually scope the work: hundreds of concurrent
    # single-activity components, and solves that see their own component
    # (the 16-stream PFS one at most), not the running set.
    assert model.peak_components > 256
    assert model.max_solve_scope <= 16 and mean_scope < 4


# -- scalar loop vs numpy kernel, and the cost of leaving a wide component ----
#
# Evidence behind two decisions in ``repro.sharing.model`` (docs/PERFORMANCE.md
# quotes these tables): the scalar loop is the only kernel a simulation
# selects, and a removal costs O(the leaver's resources), not O(component).

KERNEL_SIZES = [8, 32, 128, 512, 4096]


def _kernel_component(shape: str, n: int):
    """One connected component of ``n`` activities, as a list."""
    if shape == "chain":
        # Synthetic worst case for the scalar loop, which rescans every
        # resource each round: capacities rise along the chain, so every
        # link saturates in a round of its own (n rounds, one freeze each).
        links = [SharedResource(f"l{i}", 1e9 * (1 + i)) for i in range(n + 1)]
        return [Activity(1.0, {links[i]: 1.0, links[i + 1]: 1.0}) for i in range(n)]
    # Every flow crosses its own NIC and the one file system (a star's
    # shared-PFS wave); "bounded-hub" adds a per-flow rate cap.  The engine
    # itself never sets ``bound``; the row is there for library users.
    hub = SharedResource("pfs", 1e11)
    bound = 2e7 if shape == "bounded-hub" else float("inf")
    return [
        Activity(1.0, {SharedResource(f"nic{i}", 1e10): 1.0, hub: 1.0}, bound=bound)
        for i in range(n)
    ]


def _best_us(kernel, acts) -> float:
    """Best-of-k microseconds of one solve (k shrinks as solves get long)."""
    best = float("inf")
    spent = 0.0
    while spent < 0.2:
        start = time.perf_counter()
        kernel(acts)
        elapsed = time.perf_counter() - start
        spent += elapsed
        best = min(best, elapsed)
    return best * 1e6


@pytest.mark.benchmark(group="micro-solver")
def test_micro_kernel_sweep(benchmark):
    """Scalar loop vs the reference engine's numpy kernel, by component
    shape and size: the two kernels, called directly."""
    from repro.sharing._reference import _solve_vector
    from repro.sharing.model import _solve_scalar

    def sweep():
        rows = []
        for shape in ("hub", "bounded-hub", "chain"):
            for n in KERNEL_SIZES:
                acts = _kernel_component(shape, n)
                scalar, vector = _best_us(_solve_scalar, acts), _best_us(_solve_vector, acts)
                rows.append([shape, n, scalar, vector, vector / scalar])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ["component", "activities", "scalar_us", "numpy_us", "numpy/scalar"]
    print_table("micro: one solve, scalar loop vs numpy kernel", header, rows)
    write_bench_json(
        "MICRO_KERNELS", title="scalar loop vs numpy kernel", header=header, rows=rows
    )
    assert len(rows) == 3 * len(KERNEL_SIZES)


def _wide_pfs_job(num_nodes: int):
    """One rigid job reading and writing the shared PFS from every node."""
    tasks = [
        {"type": "pfs_read", "bytes": 1e9},
        {"type": "cpu", "flops": 1e12},
        {"type": "pfs_write", "bytes": 1e9},
    ]
    job = {
        "id": 1,
        "type": "rigid",
        "submit_time": 0.0,
        "num_nodes": num_nodes,
        "walltime": 1e6,
        "application": {"phases": [{"tasks": tasks, "iterations": 4}]},
    }
    sim = Simulation.from_spec(
        {
            "platform": reference_platform_dict(num_nodes),
            "workload": {"inline": {"jobs": [job]}},
            "algorithm": "fcfs",
        }
    )
    start = time.perf_counter()
    monitor = sim.run()
    return time.perf_counter() - start, sim.env.processed_events, monitor.solver


@pytest.mark.benchmark(group="micro-model")
def test_micro_wide_component_removal_cost(benchmark):
    """Host time of a job whose I/O waves are one component as wide as it."""

    def sweep():
        rows = []
        for num_nodes in (256, 1024, 4096):
            wall, events, stats = _wide_pfs_job(num_nodes)
            rows.append(
                [num_nodes, wall, events, wall / events * 1e6, stats.max_solve_scope, stats.splits]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ["nodes", "wall_s", "events", "us_per_event", "max_scope", "splits"]
    print_table(
        "micro: wide shared-PFS job, 4 x (pfs_read + cpu + pfs_write)",
        header,
        rows,
        note="every finish leaves a component of `nodes` activities; "
        "us_per_event stays flat while a removal is O(its resources)",
    )
    write_bench_json(
        "MICRO_WIDE_PFS", title="wide shared-PFS job removal cost", header=header, rows=rows
    )
    assert [row[4] for row in rows] == [256, 1024, 4096]


#: 21 is the mean fan-out width of the ``rigid_sched`` journey.
FANOUT_SIZES = (1, 8, 21, 64, 128)
FANOUT_ROUNDS = 200

#: Calls per fan-out of ``_fanout_round_trips(n)`` at the parent of the
#: memberless-cohort change (927741b, CPython 3.11): one ``Activity``, one
#: ``done`` event, one all-of subscription and one ``_check`` per member —
#: 102 + 6 (n - 1).  An intact cohort must not pay per member at all.
FANOUT_CALLS_WITH_MEMBERS = {1: 103.2, 8: 151.2, 21: 229.3, 64: 487.5, 128: 871.8}


def _fanout_round_trips(n: int):
    """Admit and complete one n-node CPU fan-out, ``FANOUT_ROUNDS`` times;
    returns the events processed and the cohorts that got members."""
    env = Environment()
    model = FairShareModel(env)
    cpus = [SharedResource(f"cpu{i}", 1e12) for i in range(n)]

    def job():
        for _ in range(FANOUT_ROUNDS):
            yield model.execute_fanout(1e12, cpus, ("job", "task")).done

    env.process(job())
    env.run()
    assert env.now == FANOUT_ROUNDS and model.resolves == FANOUT_ROUNDS * n
    return env.processed_events, SolverStats.from_model(model).cohorts_dissolved


def _fanout_width_report(
    benchmark, round_trips, bench_id, title, table_title, calls_with_members, **extra
):
    """Time and profile ``round_trips(n)`` at every width of
    ``FANOUT_SIZES``, print and write the table, and hold it to the
    contract of a memberless fan-out: the events of its members, nothing
    dissolved, and calls that do not grow with the width."""

    def sweep():
        rows = []
        for n in FANOUT_SIZES:
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                events, dissolved = round_trips(n)
                best = min(best, time.perf_counter() - start)
            calls = profiled_calls(lambda: round_trips(n))
            rows.append(
                [
                    n,
                    best / FANOUT_ROUNDS * 1e6,
                    calls / FANOUT_ROUNDS,
                    events / FANOUT_ROUNDS,
                    dissolved,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ["nodes", "us_per_fanout", "calls_per_fanout", "events_per_fanout", "dissolved"]
    print_table(
        table_title,
        header,
        rows,
        note=f"{FANOUT_ROUNDS} rounds, best of 5; calls counted by cProfile; "
        f"with one activity per member: {calls_with_members} calls",
    )
    write_bench_json(
        bench_id,
        title=title,
        header=header,
        rows=rows,
        extra={
            "rounds": FANOUT_ROUNDS,
            **extra,
            "python": sys.version.split()[0],
            "calls_per_fanout_with_members": calls_with_members,
        },
    )
    for n, _, calls, events, dissolved in rows:
        # resolve, wake, n completions' worth, fire check, all-of (+ the
        # process start, once)
        assert round(events) == n + 4 and dissolved == 0
        assert calls <= calls_with_members[n]
    widest, narrowest = rows[-1], rows[0]
    per_member = (widest[2] - narrowest[2]) / (widest[0] - narrowest[0])
    assert per_member < 0.5, f"{per_member:.2f} calls per added member"


@pytest.mark.benchmark(group="micro-model")
def test_micro_fanout_width(benchmark):
    """Cost of one task fan-out by width: admit, solve, wake, finish and
    resume the waiting process.  A cohort has no members unless one is
    singled out, so the calls must not grow with the width."""
    _fanout_width_report(
        benchmark,
        _fanout_round_trips,
        "MICRO_FANOUT",
        "task fan-out cost by width",
        "micro: admit + complete one CPU fan-out",
        FANOUT_CALLS_WITH_MEMBERS,
    )


HUB_CONTENDERS = 8

#: Calls per fan-out of ``_hub_round_trips(n)`` at the parent of the
#: hub-cohort change (2dc116f, CPython 3.11), where a fan-out with a shared
#: hop was one ``Activity`` per member in the hub's component: admitted,
#: solved, integrated and removed one by one.
HUB_CALLS_WITH_MEMBERS = {1: 288.5, 8: 684.5, 21: 1412.6, 64: 3820.8, 128: 7405.1}


def _hub_round_trips(n: int):
    """Admit and complete one n-node file-system read — every route
    through the same link and service, and one node link of its own —
    ``FANOUT_ROUNDS`` times, beside ``HUB_CONTENDERS`` standing readers;
    returns the events processed and the cohorts that got members."""
    env = Environment()
    model = FairShareModel(env)
    link = SharedResource("pfs.link.out", 40e9)
    service = SharedResource("pfs.read", 20e9)
    downs = [SharedResource(f"down{i}", 10e9) for i in range(HUB_CONTENDERS + n)]
    for down in downs[:HUB_CONTENDERS]:
        model.execute_fanout(1e18, [link, down, service], ("standing", "read"), hops=3)
    routes = [res for down in downs[HUB_CONTENDERS:] for res in (link, down, service)]
    payloads = [("job", "read", k) for k in range(n)]

    def job():
        for _ in range(FANOUT_ROUNDS):
            yield model.execute_fanout(1e9, routes, payloads, hops=3).done

    done = env.process(job())
    env.run(until=done)
    stats = SolverStats.from_model(model)
    assert stats.max_solve_scope == HUB_CONTENDERS + n
    return env.processed_events, stats.cohorts_dissolved


@pytest.mark.benchmark(group="micro-model")
def test_micro_hub_fanout_width(benchmark):
    """Cost of one file-system I/O fan-out by width, on a busy hub: join
    the hub's component, two solves of it (arrival, departure), wake,
    finish, resume the waiting process.  A fan-out is one row of the
    component whatever its width, so the calls must not grow with it."""
    _fanout_width_report(
        benchmark,
        _hub_round_trips,
        "MICRO_HUB",
        "file-system I/O fan-out cost by width, on a busy hub",
        f"micro: admit + complete one file-system read beside {HUB_CONTENDERS} standing readers",
        HUB_CALLS_WITH_MEMBERS,
        contenders=HUB_CONTENDERS,
    )


RING_SIZES = (2, 8, 64)
RING_ROUNDS = 50


def _ring_exchanges(topology: str, n: int):
    """One n-node job doing ``RING_ROUNDS`` ring steps, through the engine."""
    network = {"topology": topology, "bandwidth": 1e10, "latency": 1e-6}
    if topology == "fat_tree":
        network["arity"] = 8
    ring = {"type": "comm", "bytes": 1e9, "pattern": "ring"}
    return Simulation.from_spec(
        {
            "platform": {"nodes": {"count": 64, "flops": 1e12}, "network": network},
            "workload": {
                "inline": {
                    "jobs": [
                        {
                            "id": 1,
                            "num_nodes": n,
                            "application": {
                                "phases": [{"iterations": RING_ROUNDS, "tasks": [ring]}]
                            },
                        }
                    ]
                }
            },
            "algorithm": "fcfs",
        }
    )


@pytest.mark.benchmark(group="micro-model")
def test_micro_ring_exchange(benchmark):
    """Per-flow cost of a ring step: one cohort row of private two-link
    routes on a star, one component per flow where links are shared."""

    def sweep():
        rows = []
        for topology in ("star", "fat_tree"):
            for n in RING_SIZES:
                best = float("inf")
                for _ in range(3):
                    sim = _ring_exchanges(topology, n)
                    start = time.perf_counter()
                    sim.run()
                    best = min(best, time.perf_counter() - start)
                sim = _ring_exchanges(topology, n)
                calls = profiled_calls(sim.run)
                flows = RING_ROUNDS * n
                stats = SolverStats.from_model(sim.batch.model)
                rows.append(
                    [
                        f"{topology}/n={n}",
                        best / flows * 1e6,
                        calls / flows,
                        stats.cohorts_admitted,
                        stats.slot_solves,
                    ]
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ["exchange", "us_per_flow", "calls_per_flow", "cohort_rows", "slot_solves"]
    print_table(
        "micro: one ring exchange through the engine",
        header,
        rows,
        note=f"{RING_ROUNDS} steps per run, best of 3; calls counted by cProfile",
    )
    write_bench_json(
        "MICRO_RING",
        title="ring exchange cost per flow",
        header=header,
        rows=rows,
        extra={"rounds": RING_ROUNDS, "python": sys.version.split()[0]},
    )
    by_label = {row[0]: row for row in rows}
    for n in RING_SIZES:
        star, tree = by_label[f"star/n={n}"], by_label[f"fat_tree/n={n}"]
        # One row per step, every solve a slot solve; none on shared links.
        assert star[3] == RING_ROUNDS and star[4] == RING_ROUNDS * n
        assert tree[3] == 0 and tree[4] == 0
    star_calls = [by_label[f"star/n={n}"][2] for n in RING_SIZES]
    assert star_calls == sorted(star_calls, reverse=True), star_calls


PLATFORM_SIZES = (128, 10_000, 100_000)

#: ``_platform_probe`` at the parent of the lazy-fleet change (68dcfdc,
#: CPython 3.11, this host): every node, CPU and star link built up front.
#: ``(build_ms, rss_growth_mb, objects_built)`` by node count.
PLATFORM_AT_PARENT = {
    128: (0.35, 0.05, 516),
    10_000: (24.51, 6.79, 40_004),
    100_000: (252.51, 63.47, 400_004),
}

_PLATFORM_PROBE = """
import gc, json, resource, sys, time
from repro import platform_from_dict
from repro.platform import Node
from repro.sharing import SharedResource

def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20

spec = json.loads(sys.argv[1])
before = rss()
start = time.perf_counter()
platform = platform_from_dict(spec)
build = time.perf_counter() - start
grown = rss() - before
objects = sum(isinstance(o, (Node, SharedResource)) for o in gc.get_objects())
print(json.dumps([1e3 * build, grown, objects]))
"""


def _platform_probe(num_nodes: int):
    """Build the reference platform in a fresh process: wall, resident-set
    growth across the call, and the ``Node`` / ``SharedResource`` objects
    that exist afterwards.  Best wall of three processes."""
    spec = json.dumps(reference_platform_dict(num_nodes))
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _PLATFORM_PROBE, spec],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        for _ in range(3)
    ]  # fmt: skip
    return min(runs)


@pytest.mark.benchmark(group="micro-platform")
def test_micro_platform_build(benchmark):
    """What a machine costs before the workload touches it: nothing that
    grows with the node count but three pointer-sized slots per node."""

    def sweep():
        return [[n, *_platform_probe(n), *PLATFORM_AT_PARENT[n]] for n in PLATFORM_SIZES]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = [
        "nodes", "build_ms", "rss_growth_mb", "objects_built",
        "parent_build_ms", "parent_rss_growth_mb", "parent_objects_built",
    ]  # fmt: skip
    print_table(
        "micro: platform_from_dict on a star machine",
        header,
        rows,
        note="fresh process per row, best wall of 3; objects = Node + SharedResource instances",
    )
    write_bench_json(
        "MICRO_PLATFORM",
        title="platform construction cost by machine size",
        header=header,
        rows=rows,
        extra={"python": sys.version.split()[0]},
    )
    # Only the PFS service pair and its two switch links exist up front.
    assert [row[3] for row in rows] == [4] * len(PLATFORM_SIZES)
