"""Parent-vs-change pairs of the end-to-end benchmark (developer / CI tool).

Checks out ``--parent`` beside the working tree, runs the *unmodified*
``benchmarks/e2e/run.py`` of each tree — its own copy, under one
environment — in alternating order, and reports, per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, how many pairs the
change won (ties count for neither), and whether the change's median is
worse than the parent's by more than the metric's bound.  Then one traced
run per tree: the counts that must repeat exactly (``des.events``,
``sharing.resolves``, ``scheduler.invocations``) have to be equal and
``host.pycalls_per_event`` must not rise.

Timings are reported, never gated (a shared runner cannot carry a wall
verdict): the exit code is 1 only for a count mismatch or a rise in calls
per event, 2 when a run of either tree failed or was incorrect.

The parent tree is exported with ``git archive`` into a temporary
directory — nothing is written into ``.git``, unlike ``git worktree`` —
and removed afterwards unless ``--keep`` is given.

Usage: python tools/e2e_pairs.py --parent HEAD~1 --workload rigid_sched
           --pairs 10 [--seed 3] [--quick] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Counts of a traced run that repeat exactly on one tree and must be
#: equal on both; and the one that may only fall.
EQUAL_COUNTS = ("des.events", "sharing.resolves", "scheduler.invocations")
CALLS = "host.pycalls_per_event"


def export_tree(rev: str, into: Path) -> None:
    """The committed files of ``rev``, under ``into``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"error: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, quick: bool, trace: int) -> dict:
    """One ``run.py`` process in ``tree``; its result line, parsed."""
    command = [
        sys.executable,
        "benchmarks/e2e/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    # One environment for both trees.  ``run.py`` puts its own ``src``
    # first on the path; stale bytecode settings would charge one side a
    # recompile on every start.
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"error: {tree}: run.py printed no result line (exit {proc.returncode})\n"
            f"{proc.stderr[-2000:]}"
        ) from None
    result["exit"] = proc.returncode
    return result


def quartiles(values: List[float]) -> tuple:
    ordered = sorted(values)
    half = len(ordered) // 2
    lower = ordered[:half] or ordered
    upper = ordered[len(ordered) - half :] or ordered
    return median(lower), median(ordered), median(upper)


def report_metric(spec: dict, parent: List[float], change: List[float]) -> None:
    sign = 1 if spec["better"] == "lower" else -1  # sign * (change - parent) > 0: worse
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    delta = (c_med - p_med) / p_med if p_med else 0.0
    worse = sign * delta
    verdict = "ok"
    if worse > spec["bound"]:
        verdict = f"WORSE than the bound ({spec['bound']:.0%})"
    elif abs(c_med - p_med) <= (p_q3 - p_q1):
        verdict = "within the parent's quartiles"
    print(
        f"  {spec['name']:<12} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
        f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {spec['unit']}  "
        f"{delta:+.1%}  change wins {wins}/{len(parent)} (loses {losses})  {verdict}"
    )


def compare_workload(
    parent_tree: Path, workload: str, pairs: int, seed: int, quick: bool, manifest: dict
) -> int:
    status = 0
    print(f"# {workload}, seed {seed}, {pairs} pairs{', quick' if quick else ''}")
    samples: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    trees = {"parent": parent_tree, "change": ROOT}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        line = []
        for side in order:
            result = run_once(trees[side], workload, seed, quick, trace=0)
            if result["exit"] != 0 or not result["correct"] or result["failed"]:
                print(f"  pair {pair + 1}: {side} run failed or incorrect: {result}")
                status = 2
            for name, metric in result["metrics"].items():
                samples[side].setdefault(name, []).append(metric["value"])
            line.append(
                f"{side} "
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            )
        print(f"  pair {pair + 1}: " + " | ".join(line))
    for spec in manifest["end_to_end"]:
        name = spec["name"]
        if name in samples["parent"] and name in samples["change"]:
            report_metric(spec, samples["parent"][name], samples["change"][name])

    traced = {
        side: run_once(tree, workload, seed, quick, trace=1)["metrics"]
        for side, tree in trees.items()
    }
    for name in (*EQUAL_COUNTS, CALLS):
        p = traced["parent"].get(name, {}).get("value")
        c = traced["change"].get(name, {}).get("value")
        if p is None and c is None:
            continue  # the workload does not report it
        verdict = "equal" if p == c else "DIFFERENT"
        if name == CALLS and p is not None and c is not None:
            verdict = "ROSE" if c > p else ("equal" if c == p else "fell")
        print(f"  traced {name:<26} parent {p}  change {c}  {verdict}")
        if verdict in ("DIFFERENT", "ROSE"):
            status = max(status, 1)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument(
        "--workload", action="append", choices=names, help="repeatable; default: all"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="run.py --quick (smoke sizes)")
    parser.add_argument("--keep", action="store_true", help="keep the parent checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent_tree = Path(tempfile.mkdtemp(prefix="e2e-parent-"))
    status = 0
    try:
        export_tree(args.parent, parent_tree)
        for workload in args.workload or names:
            status = max(
                status,
                compare_workload(
                    parent_tree, workload, args.pairs, args.seed, args.quick, manifest
                ),
            )
    finally:
        if args.keep:
            print(f"# parent checkout kept at {parent_tree}")
        else:
            shutil.rmtree(parent_tree, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
