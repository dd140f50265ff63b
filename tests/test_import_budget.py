"""Import budget of the ``run`` journey — counts, never seconds.

``elastisim run`` on a rigid star workload is the journey every user
takes first, and it needs neither numpy (reference solver kernel, workload
generators, failure model) nor networkx (graph topologies) nor the
campaign / fuzz / replay subsystems.  The rule (docs/INTERNALS.md) is
that heavy dependencies are imported where they are first *used*; these
tests pin it from fresh interpreters, where ``sys.modules`` tells the
truth, and check that everything deferred still resolves when wanted.

The same file guards what keeps the reference engine off that path: one
engine option, ``reference``, on a constructor chain — no process-global
switch, no environment variable (counts and names only, read off the
source tree and the signatures) — and what keeps the campaign loop one
synchronous loop: no ``asyncio`` anywhere in the package, an executor of
two methods and a name, a runner with the parameters it had — and what
keeps input checking one dialect: one module that reads files and fields,
one exception base, no hand-rolled helper or stray ``JSONDecodeError``
handler growing back beside it — and what keeps expression evaluation one
interpreter: no call to builtin ``exec`` / ``eval`` / ``compile``.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Nothing the bare imports or a production star run may load.
HEAVY = (
    "numpy", "networkx", "asyncio", "repro.sharing._reference",
    "repro.campaign", "repro.fuzz", "repro.replay", "repro.tracing", "repro.profiling",
)  # fmt: skip

#: ``import repro.cli`` loaded 675 modules before the diet and 159 after.
MODULE_BUDGET = 250
#: What ``import repro`` and then ``import repro.cli`` load, to the module:
#: ``repro._input`` came in as ``repro.des.resources`` went out.
BARE_MODULES = {"import repro": 152, "import repro.cli": 155}


def _fresh(code: str, *args: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_REPORT = (
    "import json, sys; "
    "print(json.dumps({'exit': code, 'count': len(sys.modules), 'loaded': "
    f"[m for m in {HEAVY!r} if m in sys.modules]}}))"
)


def _job(jid: int, num_nodes: int, tasks: list, iterations: int) -> dict:
    return {
        "id": jid,
        "type": "rigid",
        "submit_time": float(jid),
        "num_nodes": num_nodes,
        "walltime": 1e6,
        "application": {"phases": [{"tasks": tasks, "iterations": iterations}]},
    }


def _write_inputs(
    tmp_path, *, topology: dict, tasks: list, sizes=(64, 96, 8), nodes=128, iterations=2
):
    platform = {
        "nodes": {"count": nodes, "flops": 1e12},
        "network": {"bandwidth": 1e10, "latency": 1e-6, **topology},
        "pfs": {"read_bw": 1e11, "write_bw": 8e10},
    }
    workload = {"jobs": [_job(i + 1, n, tasks, iterations) for i, n in enumerate(sizes)]}
    platform_file = tmp_path / "platform.json"
    workload_file = tmp_path / "workload.json"
    platform_file.write_text(json.dumps(platform))
    workload_file.write_text(json.dumps(workload))
    return str(platform_file), str(workload_file)


_RUN = (
    "import sys; from repro.cli import main; "
    "code = main(['run', '--platform', sys.argv[1], '--workload', sys.argv[2]]); "
)

_CPU_AND_RING = [
    {"type": "cpu", "flops": 1e13},
    {"type": "comm", "bytes": 1e7, "pattern": "ring"},
]


@pytest.mark.parametrize("statement", ["import repro.cli", "import repro"])
def test_bare_import_stays_inside_the_budget(statement):
    report = _fresh(f"{statement}; code = 0; " + _REPORT)
    assert report["loaded"] == []
    assert report["count"] <= MODULE_BUDGET
    if sys.version_info[:2] == (3, 11):  # the stdlib's own modules differ by version
        assert report["count"] <= BARE_MODULES.get(statement, MODULE_BUDGET)


@pytest.mark.parametrize("statement", ["import repro.cli", "import repro.replay"])
def test_hashing_and_the_atomic_writer_load_on_first_save_or_load(statement, tmp_path):
    # Sealed snapshot files hash their sections: in ``save`` and ``load``,
    # not at import.  ``import repro.cli`` stood at 158 modules when they came.
    report = _fresh(
        f"import sys; {statement}; early = [m for m in ('hashlib', 'repro._atomic') "
        "if m in sys.modules]; count = len(sys.modules); "
        "from repro.replay import Snapshot, run_with_snapshots; "
        f"snap = run_with_snapshots({SCENARIO!r}, 20)[1][0]; snap.save(sys.argv[1]); "
        "Snapshot.load(sys.argv[1]); import json; print(json.dumps({'early': early, "
        "'count': count, 'late': [m for m in ('hashlib', 'repro._atomic') if m in sys.modules]}))",
        str(tmp_path / "snap.json"),
    )
    assert report["early"] == []
    assert report["late"] == ["hashlib", "repro._atomic"]
    if statement == "import repro.cli":
        assert report["count"] <= 158


def test_public_names_import_without_heavy_dependencies():
    report = _fresh(
        "from repro import Simulation, load_platform, load_workload; code = 0; " + _REPORT
    )
    assert report["loaded"] == []


def test_rigid_star_run_needs_neither_numpy_nor_networkx(tmp_path):
    # 64- and 96-node jobs: dirty-slot batches well past the size at which
    # the retired numpy slot sweep used to pull numpy into rigid runs.
    files = _write_inputs(tmp_path, topology={"topology": "star"}, tasks=_CPU_AND_RING)
    report = _fresh(_RUN + _REPORT, *files)
    assert report["exit"] == 0
    assert report["loaded"] == []
    assert report["count"] <= MODULE_BUDGET


def test_fat_tree_platform_imports_networkx_on_demand(tmp_path):
    files = _write_inputs(
        tmp_path, topology={"topology": "fat_tree", "arity": 8}, tasks=_CPU_AND_RING
    )
    report = _fresh(_RUN + _REPORT, *files)
    assert report["exit"] == 0
    assert "networkx" in report["loaded"]  # which itself may bring numpy


_RUN_REFERENCE = (
    "import sys; from repro import Simulation, load_platform, load_workload; "
    "sim = Simulation(load_platform(sys.argv[1]), load_workload(sys.argv[2]), reference=True); "
    "sim.run(); code = 0 if sim.monitor.solver.vector_solves else 1; "
)


def test_wide_shared_pfs_component_needs_no_numpy(tmp_path):
    # 64 concurrent reads of one file system, an 8-node job's beside them,
    # form one multi-activity component; the scalar loop solves it.  Only
    # a reference run brings in the numpy kernel, and numpy with it.
    files = _write_inputs(
        tmp_path,
        topology={"topology": "star"},
        tasks=[{"type": "pfs_read", "bytes": 1e9}, {"type": "cpu", "flops": 1e12}],
    )
    report = _fresh(_RUN + _REPORT, *files)
    assert report["exit"] == 0
    assert report["loaded"] == []
    reference = _fresh(_RUN_REFERENCE + _REPORT, *files)
    assert reference["exit"] == 0
    assert reference["loaded"] == ["numpy", "repro.sharing._reference"]


def test_wide_pfs_job_removal_cost_stays_linear(tmp_path):
    # One 1 024-node job: every I/O wave is one 1 024-activity component
    # that its members leave one by one.  When each departure flood-filled
    # the whole component the reads alone took 92 s; the run takes ~0.2 s,
    # so the bound only trips on a return to quadratic removals.
    files = _write_inputs(
        tmp_path,
        topology={"topology": "star"},
        tasks=[
            {"type": "pfs_read", "bytes": 1e9},
            {"type": "cpu", "flops": 1e12},
            {"type": "pfs_write", "bytes": 1e9},
        ],
        sizes=(1024,),
        nodes=1024,
        iterations=4,
    )
    started = time.perf_counter()
    report = _fresh(_RUN + _REPORT, *files)
    elapsed = time.perf_counter() - started
    assert report["exit"] == 0
    assert report["loaded"] == []
    assert elapsed < 5.0


def _source_trees():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield str(path.relative_to(SRC / "repro")), ast.parse(path.read_text())


def test_no_global_statement_and_no_environment_read_but_the_directories():
    """A module-level switch needs a ``global`` to be flipped or an
    environment variable to be read: the package has neither."""
    reads = []
    for name, tree in _source_trees():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Global), f"{name}:{node.lineno}: global statement"
            mention = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, (ast.Attribute, ast.Name)) and mention in ("environ", "getenv"):
                # The call it sits in: os.environ.get(...), dict(os.environ).
                around = parent[node]
                while around in parent and not isinstance(around, ast.Call):
                    around = parent[around]
                reads.append((name, ast.unparse(around)))
    assert sorted(reads) == [
        ("campaign/cache.py", "os.environ.get('XDG_CACHE_HOME')"),
        ("campaign/cache.py", "os.environ.get(CACHE_DIR_ENV)"),
        ("campaign/queue.py", "dict(os.environ)"),  # handed to the worker it spawns
        ("cli.py", "os.environ.get('ELASTISIM_STORE_DIR')"),  # campaign run --store-dir
    ]
    from repro.campaign.cache import CACHE_DIR_ENV

    assert CACHE_DIR_ENV == "ELASTISIM_CACHE_DIR"


def test_one_engine_option_spelled_reference_on_the_constructor_chain():
    from repro import Simulation
    from repro.batch import BatchSystem
    from repro.fuzz import run_scenario_record
    from repro.sharing import FairShareModel, solve_max_min

    chain = (FairShareModel, BatchSystem, Simulation, Simulation.from_spec, run_scenario_record)
    for callable_ in (*chain, solve_max_min):
        parameters = inspect.signature(callable_).parameters
        assert not {"array_engine", "vectorize", "partition", "compiled", "array"} & set(
            parameters
        ), callable_
        if callable_ is not solve_max_min:
            option = parameters["reference"]
            assert option.default is False and option.kind is option.KEYWORD_ONLY
    assert "reference" not in inspect.signature(solve_max_min).parameters
    # Nowhere else: no other callable of the package takes the option.
    takers = [
        f"{name}:{node.name}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "reference" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    ]
    assert takers == [
        "batch/system.py:__init__",
        "batch/system.py:__init__",
        "batch/system.py:from_spec",
        "fuzz/oracles.py:run_scenario_record",
        "sharing/model.py:__init__",
    ]


def test_no_coroutine_and_no_asyncio_import_in_the_package():
    found = []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith, ast.Await)):
                found.append(f"{name}:{node.lineno}: {type(node).__name__}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(module.split(".")[0] == "asyncio" for module in modules):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_no_exec_eval_or_compile_call_in_the_package():
    """Expressions run on the package's own interpreter: nothing under
    ``src/repro`` hands a string to Python's (``re.compile`` is not it)."""
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)[:60]}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert found == []


def test_an_in_process_campaign_never_loads_asyncio():
    report = _fresh(
        "import sys; from repro.campaign import CampaignRunner, ScenarioSpec; "
        f"scenario = {SCENARIO!r}; "
        "specs = [ScenarioSpec(platform=scenario['platform'], workload=scenario['workload'], "
        "algorithm=a) for a in ('fcfs', 'easy')]; "
        "report = CampaignRunner(specs, executor='in-process').run(); "
        "code = 0 if len(report.ok) == 2 and report.executor == 'in-process' else 1; " + _REPORT
    )
    assert report["exit"] == 0
    assert "asyncio" not in report["loaded"]


def test_executor_protocol_is_two_methods_and_a_name_and_the_runner_kept_its_parameters():
    from repro.campaign import BaseExecutor, CampaignRunner

    assert sorted(n for n in vars(BaseExecutor) if not n.startswith("_")) == [
        "close", "name", "run",
    ]  # fmt: skip
    assert list(inspect.signature(BaseExecutor.run).parameters) == [
        "self", "payloads", "trace_dir", "check_invariants", "timeout",
    ]  # fmt: skip
    assert not hasattr(CampaignRunner, "_dispatch")
    # The parent's (PR 20) parameters, by name and in order: this PR adds none.
    assert list(inspect.signature(CampaignRunner.__init__).parameters) == [
        "self", "scenarios", "name", "workers", "cache", "force", "salt", "trace_dir",
        "check_invariants", "executor", "executor_options", "scenario_timeout", "warm_start",
    ]  # fmt: skip


SCENARIO = {
    "name": "lazy-smoke",
    "platform": {
        "nodes": {"count": 8, "flops": 1e12},
        "network": {"topology": "star", "bandwidth": 1e10},
        "pfs": {"read_bw": 1e11, "write_bw": 1e11},
    },
    "workload": {"generate": {"num_jobs": 6, "max_request": 4, "seed": 2}},
    "algorithm": "easy",
}


def _subcommand_cases(tmp_path):
    files = _write_inputs(
        tmp_path, topology={"topology": "star"}, tasks=_CPU_AND_RING, sizes=(4, 8)
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    campaign = tmp_path / "campaign.json"
    campaign.write_text(
        json.dumps(
            {
                "platform": SCENARIO["platform"],
                "workload": SCENARIO["workload"],
                "algorithms": ["fcfs", "easy"],
                "seeds": [0],
            }
        )
    )
    out = str(tmp_path / "out")
    trace = str(tmp_path / "trace.jsonl")
    return {
        "campaign run": ["campaign", "run", "--spec", str(campaign), "--workers", "1",
                         "--no-cache", "--quiet", "--output-dir", out],
        "whatif": ["whatif", "--base", str(scenario), "--resume-at", "0.5",
                   "--snapshot-every", "20", "--output-dir", out],
        "fuzz": ["fuzz", "run", "--count", "1", "--algorithms", "easy",
                 "--max-nodes", "4", "--max-jobs", "3"],
        "trace": ["trace", "record", "--platform", files[0], "--workload", files[1],
                  "--output", trace, "--check"],
        "profile": ["profile", "--jobs", "5", "--nodes", "8"],
        "generate": ["generate", "--output", str(tmp_path / "w.json"), "--num-jobs", "3"],
        "algorithms": ["algorithms"],
    }  # fmt: skip


@pytest.mark.parametrize(
    "command",
    ["campaign run", "whatif", "fuzz", "trace", "profile", "generate", "algorithms"],
)
def test_every_subcommand_still_resolves_its_lazy_imports(command, tmp_path):
    argv = _subcommand_cases(tmp_path)[command]
    report = _fresh(
        "import json, sys; from repro.cli import main; "
        "code = main(json.loads(sys.argv[1])); " + _REPORT,
        json.dumps(argv),
        cwd=tmp_path,
    )
    assert report["exit"] == 0


# -- one input dialect ----------------------------------------------------------


def test_the_input_module_imports_json_and_nothing_of_the_package():
    tree = ast.parse((SRC / "repro" / "_input.py").read_text())
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported <= {"__future__", "typing", "json", "math"}, imported


def test_no_hand_rolled_field_helper_and_no_stray_json_error_handler():
    handlers = []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("_require", "_positive_number", "_distribution"), name
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "JSONDecodeError" in ast.unparse(node.type):
                    handlers.append(name)
    # The one file reader, and the line readers that skip or report a bad line.
    assert sorted(handlers) == [
        "_input.py",
        "campaign/aggregate.py",  # iter_jsonl_records: a torn last line is skipped
        "campaign/cache.py",  # a corrupt entry is a miss
        "campaign/queue.py",  # a file mid-write reads as absent
        "tracing/tracer.py",  # read_jsonl names the line
    ]


def test_cli_main_sorts_exceptions_by_five_arms_and_none_is_value_error():
    tree = ast.parse((SRC / "repro" / "cli.py").read_text())
    main = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "main")
    (attempt,) = [node for node in main.body if isinstance(node, ast.Try)]
    caught = [ast.unparse(handler.type) for handler in attempt.handlers]
    assert caught == [
        "(InputError, OSError, UnicodeDecodeError)",  # 3
        "SchedulerError",  # 4
        "BatchError",  # 5
        "Exception",  # InvariantViolation: 1; anything else: 70
    ]
    imports = [n for n in ast.walk(attempt) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [ast.unparse(node) for node in imports] == [
        "from repro.tracing import InvariantViolation"
    ]


def test_every_error_a_loader_raises_is_an_input_error():
    import importlib

    from repro import InputError

    loaders = [
        "platform/loader.py", "workload/loader.py", "workload/malleable_mix.py", "workload/swf.py",
        "workload/generator.py", "application/loader.py", "campaign/spec.py", "campaign/compare.py",
        "tracing/tracer.py", "replay/snapshot.py", "failures/model.py", "_input.py",
    ]  # fmt: skip
    raised = set()
    for name, tree in _source_trees():
        if name in loaders:
            module = importlib.import_module("repro." + name[:-3].replace("/", "."))
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    called = ast.unparse(node.exc.func)
                    if called.endswith("Error") and hasattr(module, called):
                        raised.add(getattr(module, called))
    assert len(raised) >= 9
    assert [cls for cls in raised if not issubclass(cls, InputError)] == []
    # And the classes the command line files under "input" by name, wherever raised.
    import repro.engine
    import repro.expressions
    import repro.job

    for cls in (repro.job.JobError, repro.expressions.ExpressionError, repro.engine.EngineError):
        assert issubclass(cls, InputError)
