"""docs/API.md's "Input formats" section against the tables it restates.

Each table in the section is headed by one or more ``<!-- table: module.NAME
-->`` comments (``NAME[key]`` for a dict of tables; ``except a b`` for keys
a table above it already lists): its keys, in order, are the keys of that
table, so neither the document nor the code can gain or lose a field alone.
"""

import importlib
import re
from pathlib import Path

API = Path(__file__).resolve().parents[1] / "docs" / "API.md"
MARK = re.compile(r"<!-- table: ([\w.]+)\.(\w+)(?:\[(\w+)\])?(?: except ([\w ]+?))? -->")


def _documented():
    section = API.read_text().split("## Input formats", 1)[1].split("\n## ", 1)[0]
    for block in re.split(r"\n(?=\*\*)", section):
        marks = MARK.findall(block.split("\n", 1)[0])
        if marks:
            keys = re.findall(r"^\| `([^`]+)` \|", block, flags=re.M)
            yield block.split("\n", 1)[0], marks, keys


def test_every_documented_table_lists_its_rows_keys():
    seen = set()
    for heading, marks, keys in _documented():
        for module, name, item, skipped in marks:
            table = getattr(importlib.import_module(module), name)
            if item:
                table = table[item]
                table = table[1] if isinstance(table[0], type) else table  # (class, rows)
            wanted = [row[0] for row in table if row[0] not in skipped.split()]
            assert keys == wanted, heading
            seen.add((module, name, item))
    assert len(seen) >= 28


def test_every_table_of_the_loaders_is_documented():
    def is_table(value):
        return isinstance(value, tuple) and value and all(
            isinstance(row, tuple) and len(row) == 4 and isinstance(row[0], str) for row in value
        )

    documented = {(module, name) for _, marks, _ in _documented() for module, name, _, _ in marks}
    for module in (
        "repro.platform.loader", "repro.workload.loader", "repro.workload.malleable_mix",
        "repro.workload.generator", "repro.application.loader", "repro.batch.system",
        "repro.campaign.spec", "repro.tracing.tracer",
    ):  # fmt: skip
        for name, value in vars(importlib.import_module(module)).items():
            if is_table(value) and name not in ("_STAR", "_IO"):  # rows of other tables
                assert (module, name) in documented, f"{module}.{name} is not in docs/API.md"
