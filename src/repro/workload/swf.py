"""Standard Workload Format (SWF) support.

SWF is the Parallel Workloads Archive's trace format: one job per line,
18 whitespace-separated fields, ``;`` comments.  We use the fields that
matter for batch simulation:

====== ==========================================
field  meaning
====== ==========================================
1      job id
2      submit time (s)
4      run time (s)
5      allocated processors
8      requested processors
9      requested time (s)
11     completion status (1 ok, 0 failed, 5 cancelled, -1 unknown)
12     user id
====== ==========================================

Because SWF traces record only runtimes (not application structure), each
job becomes a compute-only application whose total flops reproduce the
recorded runtime on the requested node count at ``node_flops`` — the
documented substitution for running real traces through the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import List, Optional, Union

from repro._input import InputError
from repro.application import ApplicationModel, CpuTask, Phase
from repro.job import Job, JobType


class SwfError(InputError):
    """Raised for malformed SWF input."""


#: SWF completion-status codes (field 11 of the standard).
SWF_STATUS_COMPLETED = 1
SWF_STATUS_FAILED = 0
SWF_STATUS_CANCELLED = 5
SWF_STATUS_UNKNOWN = -1


@dataclass(frozen=True)
class SwfRecord:
    """One parsed SWF line (fields we consume; -1 encodes 'unknown')."""

    job_id: int
    submit_time: float
    run_time: float
    allocated_procs: int
    requested_procs: int
    requested_time: float
    user_id: int
    #: Completion status: 1 completed, 0 failed, 5 cancelled, -1 unknown.
    status: int = SWF_STATUS_UNKNOWN

    @property
    def simulable(self) -> bool:
        """Whether this job actually ran (the Zojer et al. trace filter).

        Failed (0) and cancelled (5) jobs are dropped by status; when the
        trace carries no status (-1), ``run_time <= 0`` is the proxy.
        A positive run time is always required — a job with no recorded
        runtime cannot be sized into flops.
        """
        if self.run_time <= 0:
            return False
        return self.status not in (SWF_STATUS_FAILED, SWF_STATUS_CANCELLED)


def parse_swf(source: Union[str, Path]) -> List[SwfRecord]:
    """Parse SWF text (a path or the content itself) into records.

    A :class:`~pathlib.Path` is always read from disk.  A string is
    treated as a path when it names an existing file or when it *looks*
    like one (a single whitespace-free token — ``trace.txt``,
    ``runs/trace.swf.gz`` — cannot be SWF content, whose lines hold 11+
    space-separated fields); everything else is parsed as inline content.
    """
    if isinstance(source, Path):
        is_path = True
    else:
        source = str(source)
        stripped = source.strip()
        is_path = bool(stripped) and "\n" not in source and " " not in stripped
        if not is_path and "\n" not in source:
            # Single line with spaces: an actual file wins over content.
            try:
                is_path = Path(source).is_file()
            except (OSError, ValueError):
                is_path = False
    if is_path:
        path = Path(source)
        try:
            text = path.read_text(errors="replace")
        except OSError as exc:
            raise SwfError(f"{path}: cannot read SWF file ({exc.strerror or exc})") from None
    else:
        text = source

    records: List[SwfRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 11:
            raise SwfError(
                f"line {lineno}: expected >= 11 fields, got {len(fields)}"
            )
        try:
            records.append(
                SwfRecord(
                    job_id=int(fields[0]),
                    submit_time=float(fields[1]),
                    run_time=float(fields[3]),
                    allocated_procs=int(fields[4]),
                    requested_procs=int(fields[7]),
                    requested_time=float(fields[8]),
                    user_id=int(fields[11]) if len(fields) > 11 else -1,
                    status=int(fields[10]),
                )
            )
            rec = records[-1]
            if not (
                -inf < rec.submit_time < inf
                and -inf < rec.run_time < inf
                and -inf < rec.requested_time < inf
            ):
                raise ValueError("a time that is not finite")
        except ValueError as exc:
            raise SwfError(f"line {lineno}: {exc}") from exc
    return records


def _swf_number(value: float, field: str, job_id: int) -> str:
    """Render one numeric SWF field so that ``float()`` round-trips it.

    Integral values collapse to plain integers (the archive's native
    style); everything else uses ``repr``, which Python guarantees to
    round-trip through ``float()`` exactly — fixed-width ``%.2f``-style
    formatting silently loses precision on large submit times and is the
    classic SWF-writer bug this refuses to reintroduce.
    """
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise SwfError(f"job {job_id}: field {field!r} is not finite: {value!r}")
    if value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def render_swf(records: List[SwfRecord], *, header: bool = True) -> str:
    """Render records as SWF text; the exact inverse of :func:`parse_swf`.

    All 18 standard fields are emitted; the ones :class:`SwfRecord` does
    not model are written as ``-1`` ("unknown"), which is what
    :func:`parse_swf` reconstructs, so ``parse_swf(render_swf(rs)) == rs``
    holds for any record list with finite fields.
    """
    lines: List[str] = []
    if header:
        lines.append("; SWF export (fields 1,2,4,5,8,9,11,12; -1 = unknown)")
    for rec in records:
        fields = [
            str(int(rec.job_id)),
            _swf_number(rec.submit_time, "submit_time", rec.job_id),
            "-1",  # wait time (derived: start - submit)
            _swf_number(rec.run_time, "run_time", rec.job_id),
            str(int(rec.allocated_procs)),
            "-1",  # average CPU time
            "-1",  # used memory
            str(int(rec.requested_procs)),
            _swf_number(rec.requested_time, "requested_time", rec.job_id),
            "-1",  # requested memory
            str(int(rec.status)),
            str(int(rec.user_id)),
            "-1",  # group id
            "-1",  # executable id
            "-1",  # queue number
            "-1",  # partition number
            "-1",  # preceding job
            "-1",  # think time
        ]
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def swf_records_from_jobs(jobs: List[Job]) -> List[SwfRecord]:
    """Project simulator jobs onto SWF records (post-run archival export).

    Walltimes map to requested time, actual runtimes (when the job ran)
    to run time, and ``user<N>`` accounts to numeric user ids; unknown
    quantities become ``-1`` per SWF convention.
    """
    records: List[SwfRecord] = []
    for job in jobs:
        user_id = -1
        if job.user.startswith("user"):
            try:
                user_id = int(job.user[4:])
            except ValueError:
                user_id = -1
        runtime = getattr(job, "runtime", None)
        allocated = len(job.assigned_nodes) if job.assigned_nodes else -1
        state = getattr(job, "state", None)
        state_value = getattr(state, "value", None)
        if state_value == "completed":
            status = SWF_STATUS_COMPLETED
        elif state_value == "killed":
            status = SWF_STATUS_FAILED
        else:
            status = SWF_STATUS_UNKNOWN
        records.append(
            SwfRecord(
                job_id=job.jid,
                submit_time=job.submit_time,
                run_time=float(runtime) if runtime is not None else -1.0,
                allocated_procs=allocated,
                requested_procs=job.num_nodes,
                requested_time=job.walltime if job.walltime != inf else -1.0,
                user_id=user_id,
                status=status,
            )
        )
    return records


def jobs_from_swf(
    source: Union[str, Path],
    *,
    node_flops: float,
    procs_per_node: int = 1,
    max_nodes: Optional[int] = None,
    walltime_slack: float = 1.0,
    job_type: JobType = JobType.RIGID,
    iterations: int = 1,
) -> List[Job]:
    """Convert an SWF trace into simulator jobs.

    Parameters
    ----------
    node_flops:
        Per-node compute rate used to translate runtimes into flops.
    procs_per_node:
        Processor-count divisor (SWF counts processors, we count nodes).
    max_nodes:
        Optional clamp on node requests (traces from bigger machines).
    walltime_slack:
        Walltime = slack x requested_time (or runtime when absent).
    job_type:
        Type assigned to every job (SWF has no malleability info; pass
        ``JobType.MALLEABLE`` to study "what if these jobs were malleable").
    iterations:
        Number of compute chunks per job.  Matters for the what-if study:
        iteration boundaries are the scheduling points where malleable
        reconfiguration can happen — a single-iteration conversion gives
        the scheduler no opportunity to reshape running jobs.
    """
    if node_flops <= 0:
        raise SwfError("node_flops must be > 0")
    if procs_per_node < 1:
        raise SwfError("procs_per_node must be >= 1")
    if iterations < 1:
        raise SwfError("iterations must be >= 1")

    jobs: List[Job] = []
    for rec in parse_swf(source):
        if not rec.simulable:
            continue  # failed/cancelled by status (or no runtime recorded)
        procs = rec.requested_procs if rec.requested_procs > 0 else rec.allocated_procs
        if procs <= 0:
            continue
        nodes = max(1, (procs + procs_per_node - 1) // procs_per_node)
        if max_nodes is not None:
            nodes = min(nodes, max_nodes)

        total_flops = rec.run_time * nodes * node_flops
        application = ApplicationModel(
            [
                Phase(
                    [CpuTask(total_flops / iterations)],
                    iterations=iterations,
                    name="trace",
                )
            ],
            name=f"swf{rec.job_id}",
        )
        requested = rec.requested_time if rec.requested_time > 0 else rec.run_time
        walltime = walltime_slack * requested if requested > 0 else inf

        kwargs = dict(
            job_type=job_type,
            submit_time=max(0.0, rec.submit_time),
            num_nodes=nodes,
            walltime=walltime,
            name=f"swf-job{rec.job_id}",
            user=f"user{rec.user_id}" if rec.user_id >= 0 else None,
        )
        if job_type is not JobType.RIGID:
            kwargs["min_nodes"] = max(1, nodes // 2)
            kwargs["max_nodes"] = nodes * 2 if max_nodes is None else min(nodes * 2, max_nodes)
        jobs.append(Job(rec.job_id, application, **kwargs))
    if not jobs:
        raise SwfError("SWF input produced no simulable jobs")
    return jobs
