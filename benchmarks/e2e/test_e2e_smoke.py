"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Runs every workload in ``--quick`` mode (two repetitions, shrunk inputs),
untraced then traced, and checks the contract between ``run.py`` and
``BENCHMARK.json``.  It sits outside the tier-1 ``testpaths`` on purpose: it
spawns processes and takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}


def test_manifest_names_and_layout():
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert len(UNITS) == len(MANIFEST["end_to_end"]) + len(MANIFEST["per_layer"])
    for name in [*UNITS, *WORKLOADS]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in MANIFEST["end_to_end"])
    for metric in MANIFEST["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_once(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick", "--traced"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()

    # Every metric of BENCHMARK.json exactly once, with its unit.
    printed = [line.split() for line in lines if line.startswith("metric ")]
    names = [fields[1] for fields in printed]
    assert sorted(names) == sorted(UNITS), set(names) ^ set(UNITS)
    for _, name, value, unit in printed:
        assert unit == UNITS[name], name
        float(value)

    # The result line carries the same metrics; nothing failed or drifted.
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(UNITS)
    # Counts that differ between the two repetitions are reported on a
    # "# count ... did not repeat" line and make the run incorrect.
    assert not [line for line in lines if "did not repeat" in line]

    # The trace parses, every span is closed, and every parent exists.
    trace = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
    spans = trace["spans"]
    assert spans, "no spans recorded"
    for span in spans:
        assert span["end"] is not None and span["end"] >= span["start"], span
        if span["parent"] == -1:
            assert span["name"] in ("setup", "run"), span
        else:
            parent = spans[span["parent"]]
            assert parent["rep"] == span["rep"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
