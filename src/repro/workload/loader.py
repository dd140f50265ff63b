"""JSON workload descriptions → Job lists.

Format::

    {
      "applications": {
        "solver": { ...application model JSON (see repro.application)... }
      },
      "jobs": [
        {
          "id": 1,
          "type": "malleable",            // rigid|moldable|malleable|evolving
          "submit_time": 0.0,
          "num_nodes": 8,
          "min_nodes": 2,                 // flexible types only
          "max_nodes": 16,
          "walltime": 3600,               // optional, seconds
          "application": "solver",        // name reference or inline object
          "arguments": {"num_steps": 100},// expression variables
          "class": "on-demand",           // batch (default) | on-demand
          "checkpoint_bytes": 64e9        // restart I/O footprint, optional
        }
      ]
    }

A workload file may instead hold one ``{"swf": {...}}`` trace-conversion
block.  Every field's kind, default and bound is tabled in ``docs/API.md``
("Input formats").
"""

from __future__ import annotations

from math import inf
from pathlib import Path
from typing import Any, Dict, List, Union

from repro._input import ANY, CHOICE, GE0, GE1, GT0, INTEGER, LIST, NUMBER, OBJECT, REQUIRED, TEXT
from repro._input import InputError, read, read_json
from repro.application import ApplicationError, ApplicationModel, application_from_dict
from repro.job import Job, JobClass, JobError, JobType


class WorkloadError(InputError):
    """Raised for invalid workload descriptions."""


_WORKLOAD = (
    ("jobs", LIST, None, None),
    ("applications", OBJECT, None, None),
    ("swf", OBJECT, None, None),
)
#: Default of ``id``: the job's position in the list, counted from 1.
_POSITION: Any = object()
_JOB = (
    ("id", INTEGER, _POSITION, None),
    ("application", ANY, REQUIRED, None),
    ("type", CHOICE, JobType.RIGID, {member.value: member for member in JobType}),
    ("class", CHOICE, JobClass.BATCH, {member.value: member for member in JobClass}),
    ("submit_time", NUMBER, 0.0, GE0),
    ("num_nodes", INTEGER, 1, GE1),
    ("min_nodes", INTEGER, None, GE1),
    ("max_nodes", INTEGER, None, GE1),
    ("walltime", NUMBER, inf, GT0),
    ("arguments", OBJECT, None, None),
    ("name", TEXT, None, None),
    ("user", TEXT, None, None),
    ("priority", INTEGER, 0, None),
    ("checkpoint_bytes", NUMBER, None, GT0),
)


def _job_from_dict(
    spec: Any,
    index: int,
    applications: Dict[str, ApplicationModel],
) -> Job:
    path = f"jobs[{index}]"
    values = read(spec, _JOB, path, WorkloadError)
    jid, application = values.pop("id"), values.pop("application")
    if isinstance(application, str):
        if application not in applications:
            raise WorkloadError(
                f"{path}.application must name one of the workload's "
                f"applications {sorted(applications)}, got {application!r}"
            )
        application = applications[application]
    elif isinstance(application, dict):
        try:
            application = application_from_dict(application)
        except ApplicationError as exc:
            raise WorkloadError(f"{path}.application.{exc}") from None
    else:
        raise WorkloadError(
            f"{path}.application must be an application's name or an object, "
            f"got {application!r:.60}"
        )
    if values["arguments"]:  # expression variables: every one a number
        rows = tuple((name, NUMBER, REQUIRED, None) for name in values["arguments"])
        read(values["arguments"], rows, f"{path}.arguments", WorkloadError)
    values["job_type"], values["job_class"] = values.pop("type"), values.pop("class")
    try:
        return Job(index + 1 if jid is _POSITION else jid, application, **values)
    except JobError as exc:
        raise WorkloadError(f"{path}: {exc}") from None


def workload_from_dict(
    spec: Dict[str, Any], *, base: Union[str, Path, None] = None
) -> List[Job]:
    """Build a job list from a parsed JSON workload description.

    Besides the explicit ``jobs`` form above, a workload file may hold a
    single ``{"swf": {...}}`` trace-conversion block (the same shape the
    campaign layer accepts; see
    :func:`repro.workload.jobs_from_swf_block`).  ``base`` anchors a
    relative trace path — :func:`load_workload` passes the workload
    file's own directory.
    """
    top = read(spec, _WORKLOAD, "", WorkloadError)
    if top["swf"] is not None:
        from repro.workload.malleable_mix import jobs_from_swf_block
        from repro.workload.swf import SwfError

        if top["jobs"] is not None or top["applications"] is not None:
            raise WorkloadError("swf cannot be combined with jobs or applications")
        try:
            return jobs_from_swf_block(
                top["swf"], base=None if base is None else Path(base)
            )
        except SwfError as exc:
            raise WorkloadError(str(exc)) from None

    named = top["applications"] or {}
    read(named, tuple((name, OBJECT, REQUIRED, None) for name in named),
         "applications", WorkloadError)
    applications: Dict[str, ApplicationModel] = {}
    for name, app_spec in named.items():
        try:
            applications[name] = application_from_dict(app_spec)
        except ApplicationError as exc:
            raise WorkloadError(f"applications.{name}.{exc}") from None

    if top["jobs"] is None:
        raise WorkloadError("jobs is required")
    jobs = [_job_from_dict(j, i, applications) for i, j in enumerate(top["jobs"])]

    jids = [job.jid for job in jobs]
    if len(set(jids)) != len(jids):
        raise WorkloadError("jobs: duplicate job ids")
    return jobs


def load_workload(path: Union[str, Path]) -> List[Job]:
    """Load a workload from a JSON file."""
    return workload_from_dict(read_json(path, WorkloadError), base=Path(path).parent)
