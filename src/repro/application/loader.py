"""JSON application models → ApplicationModel objects.

Format::

    {
      "name": "lulesh-like",
      "data_per_node": "2e9",
      "phases": [
        {
          "name": "init",
          "tasks": [{"type": "pfs_read", "bytes": "1e10"}]
        },
        {
          "name": "solve",
          "iterations": "num_steps",
          "scheduling_point": true,
          "tasks": [
            {"type": "cpu", "flops": "2e13 / num_nodes",
             "distribution": "per_node"},
            {"type": "comm", "bytes": "5e6", "pattern": "alltoall"},
            {"type": "bb_write", "bytes": "1e9",
             "distribution": "per_node", "charge": false}
          ]
        },
        {
          "name": "output",
          "tasks": [{"type": "pfs_write", "bytes": "5e10"}]
        }
      ]
    }

Magnitude fields take a number or an expression string (see
:mod:`repro.expressions`); every field of every task type is tabled in
``docs/API.md`` ("Input formats").
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Union

from repro._input import CHOICE, FLAG, FRACTION, GE0, GT0, LIST, MAGNITUDE, REQUIRED, TEXT
from repro._input import read, read_json
from repro.application.model import ApplicationModel, Phase
from repro.application.tasks import (
    ApplicationError,
    GpuTask,
    BbReadTask,
    BbWriteTask,
    CommPattern,
    CommTask,
    CpuTask,
    DelayTask,
    Distribution,
    EvolvingRequest,
    PfsReadTask,
    PfsWriteTask,
    Task,
)

_APPLICATION = (
    ("phases", LIST, REQUIRED, None),
    ("data_per_node", MAGNITUDE, 0, GE0),
    ("name", TEXT, "application", None),
)
_PHASE = (
    ("tasks", LIST, REQUIRED, None),
    ("iterations", MAGNITUDE, 1, GT0),
    ("scheduling_point", FLAG, True, None),
    ("parallel", FLAG, False, None),
    ("name", TEXT, None, None),
)
_TYPE = ("type", CHOICE, REQUIRED, (
    "cpu", "gpu", "comm", "pfs_read", "pfs_write", "bb_read", "bb_write",
    "delay", "evolving_request",
))  # fmt: skip
_NAME = ("name", TEXT, None, None)
_SPREAD = ("distribution", CHOICE, Distribution.EVEN, {d.value: d for d in Distribution})
_PATTERN = ("pattern", CHOICE, CommPattern.ALL_TO_ALL, {p.value: p for p in CommPattern})
_FLOPS, _BYTES = ("flops", MAGNITUDE, REQUIRED, GE0), ("bytes", MAGNITUDE, REQUIRED, GE0)
_IO = (_TYPE, _BYTES, _SPREAD, _NAME)
#: Per task type: its class and its rows.  Row 1 is the magnitude the class
#: takes first; every later row is a keyword of the class by the same name.
_TASKS = {
    "cpu": (CpuTask, (_TYPE, _FLOPS, _SPREAD, ("serial_fraction", MAGNITUDE, 0, FRACTION), _NAME)),
    "gpu": (GpuTask, (_TYPE, _FLOPS, _SPREAD, _NAME)),
    "comm": (CommTask, (_TYPE, _BYTES, _PATTERN, _NAME)),
    "pfs_read": (PfsReadTask, _IO),
    "pfs_write": (PfsWriteTask, _IO),
    "bb_read": (BbReadTask, _IO),
    "bb_write": (BbWriteTask, _IO + (("charge", FLAG, True, None),)),
    "delay": (DelayTask, (_TYPE, ("seconds", MAGNITUDE, REQUIRED, GE0), _NAME)),
    "evolving_request": (
        EvolvingRequest,
        (_TYPE, ("num_nodes", MAGNITUDE, REQUIRED, GT0), ("blocking", FLAG, False, None), _NAME),
    ),
}


def _task(spec: Any, path: str) -> Task:
    try:
        cls, table = _TASKS[spec["type"]]
    except (KeyError, TypeError):
        # No such type, no type, not an object: read against rows that start
        # with the ``type`` row, which is the one to say so.
        cls, table = Task, _IO
    values = read(spec, table, path, ApplicationError)
    del values["type"]
    try:
        return cls(values.pop(table[1][0]), **values)
    except ApplicationError as exc:  # an expression that does not compile
        raise ApplicationError(f"{path}: {exc}") from None


def task_from_dict(spec: Dict[str, Any]) -> Task:
    """Build a single task from its JSON object."""
    return _task(spec, "task")


def phase_from_dict(spec: Dict[str, Any], index: int) -> Phase:
    """Build a phase from its JSON object."""
    path = f"phases[{index}]"
    values = read(spec, _PHASE, path, ApplicationError)
    tasks = [_task(t, f"{path}.tasks[{i}]") for i, t in enumerate(values.pop("tasks"))]
    values["name"] = values["name"] or f"phase{index}"
    try:
        return Phase(tasks, **values)
    except ApplicationError as exc:
        raise ApplicationError(f"{path}: {exc}") from None


def application_from_dict(spec: Dict[str, Any]) -> ApplicationModel:
    """Build an :class:`ApplicationModel` from a parsed JSON description.

    Every message starts with a path relative to ``spec``
    (``phases[0].tasks[1].flops …``), so a caller that holds the
    application under a key prefixes that key.
    """
    values = read(spec, _APPLICATION, "", ApplicationError)
    phases = [phase_from_dict(p, i) for i, p in enumerate(values.pop("phases"))]
    try:
        return ApplicationModel(phases, **values)
    except ApplicationError as exc:
        raise ApplicationError(f"data_per_node: {exc}") from None


def load_application(path: Union[str, Path]) -> ApplicationModel:
    """Load an application model from a JSON file."""
    return application_from_dict(read_json(path, ApplicationError))
