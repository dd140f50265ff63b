"""The mutation tier: no input file reaches exit 70 — enumerated, not sampled.

For every input format, *every* path of a small valid document is replaced,
one at a time, by each of ``VALUES``, and every file is damaged in the ways
of ``damaged``; each mutant goes through ``cli.main`` in-process.  Oracle:

* exit code 0, 2 or 3 (``trace check`` and ``campaign compare`` may also
  say 1: finding a violation or a regression is their job);
* on 3: nothing on stdout, exactly one stderr line, it starts ``error:`` and
  contains the mutated path (the file's name for file-level damage), no
  ``Traceback``, no Python type name; nothing written under the output
  directory; and every case under ``DEADLINE_S``.

The one exception to "contains the path": an expression *string* in a
magnitude field (``"abc"``) loads and fails only when it is evaluated,
mid-run, with a message that names the field and not its path — ROADMAP
item 1(b).

The mutants that are *accepted* are a committed golden,
``tests/golden/accepted_mutants.json``, so a newly accepted ``NaN`` is a
one-line diff.  ``python tests/test_input_mutations.py`` prints the census
(exit codes per family); ``--write-golden`` rewrites the golden;
``--cold-cli`` runs ROADMAP's probe on the benchmark's ``cold_cli`` inputs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script: tests/ (and its ``platform`` package) off the path
    sys.path[0] = str(ROOT / "src")
GOLDEN = ROOT / "tests" / "golden" / "accepted_mutants.json"
DEADLINE_S = 2.0

VALUES = [None, "abc", -1, 0, [], {}, math.inf, True, math.nan, -0.0, 2**63, "1e12"]
#: Spellings an error message must not contain: Python's, not the user's.
TYPE_NAMES = ("' object", "NoneType", "float()", "int()", "Traceback", "instances of", "unhashable")

PLATFORM = {
    "name": "m",
    "nodes": {"count": 4, "flops": 1e9, "cores": 2, "gpus": 1, "gpu_flops": 1e9},
    "network": {"topology": "star", "bandwidth": 1e9, "latency": 1e-6, "pfs_bandwidth": 1e9},
    "pfs": {"read_bw": 1e9, "write_bw": 1e9, "capacity": 1e12},
    "burst_buffer": {"read_bw": 1e9, "write_bw": 1e9, "capacity": 1e12},
    "power": {"idle_watts": 100, "peak_watts": 300, "corridor_watts": 2000},
}
NETWORKS = {
    "fat_tree": {"topology": "fat_tree", "bandwidth": 1e9, "arity": 2, "spine_bandwidth": 2e9},
    "torus": {"topology": "torus", "bandwidth": 1e9, "dims": [2, 2]},
    "dragonfly": {
        "topology": "dragonfly", "bandwidth": 1e9, "groups": 2, "routers_per_group": 1,
        "nodes_per_router": 2, "local_bandwidth": 1e9, "global_bandwidth": 1e9,
    },
}  # fmt: skip
SMALL_PLATFORM = {
    "nodes": {"count": 4, "flops": 1e9},
    "network": {"bandwidth": 1e9},
    "pfs": {"read_bw": 1e9, "write_bw": 1e9},
}
#: Every job has a walltime, so a mutant that makes one endless is killed.
WORKLOAD = {
    "applications": {
        "solver": {
            "name": "solver",
            "data_per_node": 1e6,
            "phases": [
                {
                    "name": "solve",
                    "iterations": 2,
                    "scheduling_point": True,
                    "parallel": False,
                    "tasks": [
                        {"type": "cpu", "name": "c", "flops": 1e9, "distribution": "even",
                         "serial_fraction": 0.1},
                        {"type": "comm", "bytes": 1e6, "pattern": "ring"},
                    ],
                }
            ],
        }
    },
    "jobs": [
        {"id": 1, "name": "a", "type": "malleable", "class": "batch", "submit_time": 0,
         "num_nodes": 2, "min_nodes": 1, "max_nodes": 4, "walltime": 100, "application": "solver",
         "arguments": {"n": 2}, "user": "u", "priority": 1, "checkpoint_bytes": 1e6},
        {"id": 2, "submit_time": 1, "num_nodes": 1, "walltime": 100,
         "application": {"phases": [{"tasks": [
             {"type": "pfs_read", "bytes": 1e6},
             {"type": "bb_write", "bytes": 1e6, "charge": False},
             {"type": "delay", "seconds": 1},
             {"type": "gpu", "flops": 1e9}]}]}},
        {"id": 3, "type": "evolving", "submit_time": 2, "num_nodes": 1, "max_nodes": 2,
         "walltime": 100,
         "application": {"phases": [{"iterations": 2, "tasks": [
             {"type": "evolving_request", "num_nodes": 2, "blocking": False},
             {"type": "cpu", "flops": 1e9}]}]}},
    ],
}  # fmt: skip
ONE_JOB = {
    "jobs": [
        {"id": 1, "submit_time": 0, "num_nodes": 2, "walltime": 100,
         "application": {"phases": [{"iterations": 2, "tasks": [{"type": "cpu", "flops": 1e9}]}]}},
        {"id": 2, "submit_time": 5, "num_nodes": 1, "walltime": 100,
         "application": {"phases": [{"tasks": [{"type": "cpu", "flops": 1e9}]}]}},
    ]
}  # fmt: skip
SWF_BLOCK = {
    "file": "trace.swf", "type_mix": "50,0,50", "node_flops": 1e9,
    "parallel_fractions": [0.99, 0.9], "procs_per_node": 1, "max_nodes": 4, "iterations": 2,
    "walltime_slack": 2.0, "normalize_submit": True, "max_jobs": 3, "seed": 1,
}  # fmt: skip
SWF_TEXT = "; three jobs\n" + "".join(
    f"{j} {10 * j} -1 20 {j} -1 -1 {j} 40 -1 1 1 -1 -1 -1 -1 -1 -1\n" for j in (1, 2, 3)
)
SIM = {
    "invocation_interval": 50, "requeue_on_failure": True, "max_requeues": 1,
    "checkpoint_restart": False, "until": 1000,
    "failures": {"mtbf": 1e6, "mean_repair": 10, "seed": 1, "horizon": 100},
}  # fmt: skip
CAMPAIGN = {
    "name": "c",
    "platform": SMALL_PLATFORM,
    "workload": {"inline": ONE_JOB},
    "algorithms": ["fcfs"],
    "seeds": [0],
    "sim": SIM,
    "grid": {"x": [1]},
    "scenario_timeout": 30,
    "executor": "in-process",
}
CAMPAIGN_OTHER = {  # the alternative spellings and the other workload kinds
    "platforms": [SMALL_PLATFORM],
    "workloads": [
        {"name": "g", "generate": {"num_jobs": 2, "max_request": 2, "mean_runtime": 5, "seed": 1}},
        {"name": "s", "swf": SWF_BLOCK},
    ],
    "algorithm": "fcfs",
    "num_seeds": 1,
    "base_seed": 3,
    "sim": {"failures": {"trace": [{"time": 1, "node": 0, "downtime": 2}]}},
}
SCENARIO = {
    "platform": SMALL_PLATFORM,
    "workload": {"inline": ONE_JOB},
    "algorithm": "easy",
    "seed": 0,
    "sim": {"max_requeues": 1},
    "name": "s",
    "params": {"x": 1},
}
REPORT = {
    "bench": "b",
    "title": "t",
    "header": ["scenario", "makespan", "utilization"],
    "rows": [{"scenario": "a", "makespan": 10.0, "utilization": 0.5}],
}


def paths(doc: Any, prefix: Tuple = ()) -> Iterator[Tuple]:
    """Every key and every list item of ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutated(doc: Any, path: Tuple, value: Any) -> Any:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def dotted(path: Tuple) -> str:
    """``("jobs", 2, "walltime")`` → ``jobs[2].walltime``: how messages spell it."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def spell(value: Any) -> str:
    return json.dumps(value)


def toml(doc: Dict[str, Any]) -> str:
    """``doc`` as TOML: one ``key = value`` line each, nested values inline."""

    def inline(value: Any) -> str:
        if isinstance(value, dict):
            return "{" + ", ".join(f"{json.dumps(k)} = {inline(v)}" for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(inline(v) for v in value) + "]"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and not math.isfinite(value):
            return "nan" if value != value else "inf" if value > 0 else "-inf"
        return json.dumps(value)

    return "".join(f"{json.dumps(k)} = {inline(v)}\n" for k, v in doc.items())


def has_null(value: Any) -> bool:
    if isinstance(value, dict):
        return any(has_null(v) for v in value.values())
    return value is None or isinstance(value, list) and any(has_null(v) for v in value)


def damaged(content: bytes, wrong_type: bytes = b"[1, 2]") -> Dict[str, Any]:
    """File-level damage: what the file holds instead (None: a directory)."""
    return {
        "empty": b"",
        "cut-25%": content[: len(content) // 4],
        "cut-50%": content[: len(content) // 2],
        "cut-90%": content[: len(content) * 9 // 10],
        "wrong-type": wrong_type,
        "not-utf8": b"\xff\xfe\x00" + content,
        "directory": None,
    }


#: Rules across fields, across files, or found only when the run gets there
#: name the object and its fields, not one path: the messages that may go
#: without the mutated path.  (Everything a table checks names it.)
ACROSS = (
    "needs at least",  # a job wider than the platform
    "targets node",  # a failure on a node the platform does not have
    "needs GPUs", "needs burst buffers", "needs a PFS",  # a task the platform cannot serve
    "outside bounds", "min_nodes <= max_nodes",  # a job's three sizes
    "network.dims", "dragonfly shape",  # a topology's shape against nodes.count
    "jobs is required",  # a workload file with neither jobs nor swf
    "workload.inline or workload.swf is required",
)  # fmt: skip
#: A scenario that is well-formed part by part but whose parts do not fit, or
#: that fails mid-run (ROADMAP 1(b)), stays a campaign's per-scenario
#: ``failed`` record (exit 5) when its error is one of these.
FAILED_OK = ("JobError", "FailureError", "ApplicationError", "EngineError", "SchedulerError")


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline(f"still running after {2 * DEADLINE_S:g} s")


def run_cli(argv: List[str]) -> Tuple[Any, str, str, float]:
    """``cli.main(argv)`` with its output captured: code, stdout, stderr, seconds."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 2 * DEADLINE_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            except _Deadline as exc:
                code = f"hang: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Family:
    """One format through one entry point: how a mutant is written and run."""

    def __init__(
        self, name, doc, argv, *, write=None, allowed=(0, 2, 3), outputs=(), where=dotted,
        suffix="", needle="mutant",
    ):  # fmt: skip
        self.name = name
        self.doc = doc
        self.argv = argv  # argv(tmp, mutant file) -> list
        self.write = write or (lambda path, doc: path.write_text(json.dumps(doc)))
        self.allowed = allowed
        self.outputs = outputs  # paths under tmp that must stay empty on exit 3
        self.where = where  # how a message spells a path of this format
        self.suffix = suffix  # of the mutant file's name
        self.needle = needle  # what names the file in a message about file-level damage


def check(family: Family, label: str, needle: str, result, tmp: Path, lenient: str = "") -> List[str]:
    """The oracle.  Returns what is wrong with one case (nothing, if nothing)."""
    code, out, err, seconds = result
    problems = []
    failed = [line.split(": ")[2] for line in err.splitlines() if line.startswith("failed: ")]
    if label.rpartition("=")[0].rstrip("[0]").endswith(("algorithm", "algorithms")):
        allowed = family.allowed + (4, 5)  # an unknown algorithm: exit 4; exit 5 from a campaign
    elif code == 5 and family.name.startswith("campaign") and set(failed) <= set(FAILED_OK):
        allowed = family.allowed + (5,)
    else:
        allowed = family.allowed
    if code not in allowed:
        problems.append(f"exit {code}: {err.strip()[-200:]}")
    if seconds > DEADLINE_S:
        problems.append(f"took {seconds:.1f} s")
    if code == 3:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"stderr is not one 'error:' line: {err!r}")
        if needle not in err and not (lenient and lenient in err) and not any(
            rule in err for rule in ACROSS
        ):
            problems.append(f"message does not name {needle!r}: {err.strip()!r}")
        for name in TYPE_NAMES:
            if name in err:
                problems.append(f"message leaks {name!r}: {err.strip()!r}")
        if out:
            problems.append(f"stdout before the error: {out[:80]!r}")
        for output in family.outputs:
            target = tmp / output
            if target.is_file() or target.is_dir() and any(target.iterdir()):
                problems.append(f"wrote {output} before failing")
    return [f"{family.name}:{label}: {p}" for p in problems]


def _reset(tmp: Path, family: Family) -> None:
    import shutil

    for output in family.outputs:
        target = tmp / output
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()


def run_family(family: Family, tmp: Path, values=VALUES) -> Tuple[Dict[str, Any], List[str]]:
    """Every mutant of one family: ``{label: exit code}`` and the oracle's findings."""
    codes: Dict[str, Any] = {}
    problems: List[str] = []
    target = tmp / f"mutant{family.suffix}"
    for path in paths(family.doc):
        for value in values:
            doc = mutated(family.doc, path, value)
            if family.write is _write_toml and has_null(doc):
                continue  # TOML has no null
            label = f"{dotted(path)}={spell(value)}"
            _reset(tmp, family)
            family.write(target, doc)
            result = run_cli(family.argv(tmp, target))
            codes[label] = result[0]
            # An expression string in a magnitude loads; see the module docstring.
            lenient = str(path[-1]) if isinstance(value, str) else ""
            problems += check(family, label, family.where(path), result, tmp, lenient)
    return codes, problems


def run_damage(family: Family, tmp: Path, content: bytes, wrong_type: bytes = b"[1, 2]"):
    """Every file-level damage of one family's file."""
    import shutil

    codes: Dict[str, Any] = {}
    problems: List[str] = []
    target = tmp / f"mutant{family.suffix}"
    for label, data in damaged(content, wrong_type).items():
        _reset(tmp, family)
        if target.is_dir():
            shutil.rmtree(target)
        if data is None:
            target.unlink(missing_ok=True)
            target.mkdir()
        else:
            target.write_bytes(data)
        result = run_cli(family.argv(tmp, target))
        codes[f"<{label}>"] = result[0]
        problems += check(family, label, family.needle, result, tmp)
    if target.is_dir():
        shutil.rmtree(target)
    return codes, problems


def _write_toml(path: Path, doc: Dict[str, Any]) -> None:
    path.write_text(toml(doc))


def _write_jsonl(path: Path, doc: List[Any]) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in doc))


def _scenario_where(path: Tuple) -> str:
    """A campaign's message names the path inside the scenario it expanded to:
    ``workloads[1].swf.seed`` reads ``workload.swf.seed``."""
    if path[0] in ("platforms", "workloads") and len(path) > 1:
        path = (path[0][:-1],) + path[2:]
    return dotted(path)


def _jsonl_where(path: Tuple) -> str:
    """A trace message names the file and the line, ``mutant:3:`` — the file
    alone when it is the checker that cannot read a record's ``args``."""
    return "mutant" if "args" in path else f"mutant:{path[0] + 1}:"


def families(tmp: Path) -> List[Tuple[Family, bytes, bytes]]:
    """Every family, with the valid content of its file and a wrong top-level type."""
    valid = {}
    for name, doc in [("p.json", PLATFORM), ("w.json", WORKLOAD), ("one.json", ONE_JOB),
                      ("s.json", SCENARIO), ("r.json", REPORT)]:  # fmt: skip
        valid[name] = tmp / name
        valid[name].write_text(json.dumps(doc))
    (tmp / "trace.swf").write_text(SWF_TEXT)
    code, _, err, _ = run_cli(
        ["trace", "record", "--platform", str(valid["p.json"]), "--workload",
         str(valid["one.json"]), "--output", str(tmp / "t.jsonl")]
    )  # fmt: skip
    assert code == 0, err
    trace_lines = [json.loads(line) for line in (tmp / "t.jsonl").read_text().splitlines()]
    trace = trace_lines[:4] + [line for line in trace_lines[4:] if line.get("args")][:2]

    def run_with(flag, other_flag, other):
        return lambda tmp, target: [
            "run", flag, str(target), other_flag, str(valid[other]), "--output-dir", str(tmp / "out")
        ]

    def validate(flag):
        return lambda tmp, target: ["validate", flag, str(target)]

    def campaign(tmp, target):
        return ["campaign", "run", "--spec", str(target), "--workers", "1", "--no-cache",
                "--quiet", "--output-dir", str(tmp / "out")]  # fmt: skip

    def whatif(mutant_flag, valid_flag):
        return lambda tmp, target: [
            "whatif", mutant_flag, str(target), valid_flag, str(valid["s.json"]),
            "--snapshot-every", "5", "--checkpoints", str(tmp / "ckpt"), "--output-dir", str(tmp / "out"),
        ]  # fmt: skip

    swf_workload = {"swf": SWF_BLOCK}
    json_bytes = lambda doc: json.dumps(doc).encode()  # noqa: E731
    jsonl_bytes = "".join(json.dumps(line) + "\n" for line in trace).encode()
    out = [
        (Family("platform/run", PLATFORM, run_with("--platform", "--workload", "w.json"),
                outputs=("out",)), json_bytes(PLATFORM), b"[1, 2]"),
        (Family("platform/validate", PLATFORM, validate("--platform")), json_bytes(PLATFORM), b"5"),
        (Family("workload/run", WORKLOAD, run_with("--workload", "--platform", "p.json"),
                outputs=("out",)), json_bytes(WORKLOAD), b"[1, 2]"),
        (Family("workload/validate", WORKLOAD, validate("--workload")), json_bytes(WORKLOAD), b'"x"'),
        (Family("swf-block/run", swf_workload, run_with("--workload", "--platform", "p.json"),
                outputs=("out",)), json_bytes(swf_workload), b"[1, 2]"),
        (Family("campaign/json", CAMPAIGN, campaign, outputs=("out",), where=_scenario_where),
         json_bytes(CAMPAIGN), b"[1, 2]"),
        (Family("campaign/toml", CAMPAIGN, campaign, write=_write_toml, outputs=("out",),
                suffix=".toml", where=_scenario_where), toml(CAMPAIGN).encode(), b"[1, 2]"),
        (Family("campaign-other/json", CAMPAIGN_OTHER, campaign, outputs=("out",),
                where=_scenario_where), json_bytes(CAMPAIGN_OTHER), b"null"),
        (Family("whatif/base", SCENARIO, whatif("--base", "--edited"), outputs=("out", "ckpt")),
         json_bytes(SCENARIO), b"[1, 2]"),
        (Family("whatif/edited", SCENARIO, whatif("--edited", "--base"), outputs=("out",)),
         json_bytes(SCENARIO), b"[1, 2]"),
        (Family("trace/check", trace, lambda tmp, target: ["trace", "check", str(target)],
                write=_write_jsonl, allowed=(0, 1, 2, 3), where=_jsonl_where), jsonl_bytes, b"[1, 2]\n"),
        (Family("trace/convert", trace,
                lambda tmp, target: ["trace", "convert", str(target), str(tmp / "chrome.json")],
                write=_write_jsonl, outputs=("chrome.json",), where=_jsonl_where),
         jsonl_bytes, b"[1, 2]\n"),
        (Family("report/current", REPORT,
                lambda tmp, target: ["campaign", "compare", str(target), str(valid["r.json"])],
                allowed=(0, 1, 2, 3)), json_bytes(REPORT), b"[1, 2]"),
        (Family("report/baseline", REPORT,
                lambda tmp, target: ["campaign", "compare", str(valid["r.json"]), str(target)],
                allowed=(0, 1, 2, 3)), json_bytes(REPORT), b"[1, 2]"),
    ]  # fmt: skip
    for name, network in NETWORKS.items():
        doc = {"nodes": {"count": 4, "flops": 1e9}, "network": network}
        out.append((Family(f"platform-{name}/validate", doc, validate("--platform")), b"", b""))
    return out


def swf_text_family(tmp: Path) -> Family:
    """The SWF trace itself, damaged, under a valid ``swf`` block."""
    workload = tmp / "swf-workload.json"
    workload.write_text(json.dumps({"swf": dict(SWF_BLOCK, file="mutant")}))
    (tmp / "p.json").write_text(json.dumps(PLATFORM))
    return Family(
        "swf-text/run", None,
        lambda tmp, target: ["run", "--platform", str(tmp / "p.json"), "--workload", str(workload),
                             "--output-dir", str(tmp / "out")],
        outputs=("out",),
    )  # fmt: skip


def snapshot_family(tmp: Path) -> Tuple[Family, bytes]:
    """One file of a recorded checkpoint set, damaged: ``whatif`` re-records."""
    base, edited = tmp / "s.json", tmp / "e.json"
    base.write_text(json.dumps(SCENARIO))
    doc = copy.deepcopy(SCENARIO)
    doc["workload"]["inline"]["jobs"][1]["walltime"] = 50
    edited.write_text(json.dumps(doc))
    argv = ["whatif", "--base", str(base), "--edited", str(edited), "--snapshot-every", "5",
            "--checkpoints", str(tmp / "set"), "--output-dir", str(tmp / "out")]  # fmt: skip
    code, _, err, _ = run_cli(argv)
    assert code == 0, err
    first = sorted((tmp / "set").iterdir())[0]

    def rerun(tmp, target):
        if first.is_dir():
            first.rmdir()
        else:
            first.unlink(missing_ok=True)
        target.rename(first)
        return argv

    return Family("snapshot/whatif", None, rerun, needle=first.name), first.read_bytes()


def census(tmp: Path) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Run everything: ``{family: {label: code}}`` and every finding."""
    import functools

    from repro import cli

    # ``main`` builds its parser on every call: 4 ms, half of this tier's time.
    build, cli._build_parser = cli._build_parser, functools.cache(cli._build_parser)
    try:
        everything: Dict[str, Dict[str, Any]] = {}
        problems: List[str] = []
        for family, content, wrong_type in families(tmp):
            everything[family.name], found = run_family(family, tmp)
            problems += found
            if content:
                more = run_damage(family, tmp, content, wrong_type)
                everything[family.name].update(more[0])
                problems += more[1]
        for family, content in (swf_text_family(tmp), SWF_TEXT.encode()), snapshot_family(tmp):
            everything[family.name], found = run_damage(family, tmp, content)
            problems += found
        return everything, problems
    finally:
        cli._build_parser = build


def accepted(everything: Dict[str, Dict[str, Any]]) -> List[str]:
    """Sorted ``family:path=value`` of every mutant that was not refused."""
    return sorted(
        f"{family}:{label}" + ("" if code == 0 else f" -> exit {code}")
        for family, codes in everything.items()
        for label, code in codes.items()
        if code not in (2, 3)
    )


# -- the tests ----------------------------------------------------------------

if __name__ != "__main__":
    import pytest

    @pytest.fixture(scope="module")
    def results(tmp_path_factory):
        return census(tmp_path_factory.mktemp("mutants"))

    def test_every_mutant_meets_the_oracle(results):
        everything, problems = results
        assert sum(len(codes) for codes in everything.values()) > 3000
        assert not problems, f"{len(problems)} finding(s):\n" + "\n".join(problems[:40])

    def test_the_accepted_set_is_the_committed_golden(results):
        got, want = accepted(results[0]), json.loads(GOLDEN.read_text())
        assert got == want, (
            f"newly accepted: {sorted(set(got) - set(want))[:20]}; "
            f"newly refused: {sorted(set(want) - set(got))[:20]} "
            "(python tests/test_input_mutations.py --write-golden, and read the diff)"
        )

    def test_the_golden_holds_the_legal_mutants_and_none_of_the_absurd_ones():
        golden = json.loads(GOLDEN.read_text())
        for legal in (
            "workload/run:jobs[0].submit_time=0",
            "platform/run:network.latency=0",
            "workload/run:jobs[0].id=0",
            "workload/run:applications.solver.phases[0].tasks[0].flops=0",
            'platform/run:name="abc"',
            "platform/run:pfs_bandwidth=null".replace("pfs_bandwidth", "network.pfs_bandwidth"),
            "platform/run:power=null",
        ):
            assert legal in golden, legal
        numeric = ("flops", "bandwidth", "_bw", "submit_time", "walltime", "num_nodes", "count",
                   "latency", "watts", "capacity", "mtbf", "time", "dur")  # fmt: skip
        for entry in golden:
            family, _, rest = entry.partition(":")
            path, _, value = rest.partition(" -> ")[0].rpartition("=")
            leaf = path.rpartition(".")[2]
            if family.startswith(("report", "trace")):
                continue  # a report's cells and a trace record's args are free-form
            if any(leaf.endswith(word) for word in numeric):
                assert value not in ("NaN", "Infinity", "true", "false"), entry
            if leaf == "name":
                assert value == "null" or value.startswith('"'), entry


def cold_cli_probe(tmp: Path) -> Dict[str, Dict[str, Any]]:
    """ROADMAP's probe: ``cold_cli``'s quick platform and first three jobs,
    through ``run``, over the nine values it was first measured with."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import gen

    spec = gen.cold_cli(3, quick=True)
    platform, workload = spec["platform"], {"jobs": spec["workload"]["jobs"][:3]}
    (tmp / "p.json").write_text(json.dumps(platform))
    (tmp / "w.json").write_text(json.dumps(workload))
    everything = {}
    for name, doc, flag, other_flag, other in [
        ("platform", platform, "--platform", "--workload", "w.json"),
        ("workload", workload, "--workload", "--platform", "p.json"),
    ]:
        family = Family(
            name, doc,
            lambda tmp, target, a=flag, b=other_flag, c=other: ["run", a, str(target), b, str(tmp / c)],
        )  # fmt: skip
        everything[name], _ = run_family(family, tmp, VALUES[:9])
    return everything


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        if "--cold-cli" in sys.argv:
            everything, problems = cold_cli_probe(Path(scratch)), []
        else:
            everything, problems = census(Path(scratch))
    for family, codes in everything.items():
        print(f"{family:28s} {len(codes):5d}  {dict(sorted(Counter(map(str, codes.values())).items()))}")
    total = Counter(str(code) for codes in everything.values() for code in codes.values())
    print(f"{'total':28s} {sum(total.values()):5d}  {dict(sorted(total.items()))}")
    print("\n".join(problems))
    if "--write-golden" in sys.argv:
        GOLDEN.write_text(json.dumps(accepted(everything), indent=0) + "\n")
        print(f"wrote {GOLDEN}")
    sys.exit(1 if problems else 0)
