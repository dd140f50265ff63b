"""SWF traces converted to rigid/moldable/malleable job mixes.

The Zojer/Posner/Özden methodology for evaluating malleable scheduling on
real-world workloads: take a Parallel Workloads Archive trace, drop the
jobs that never ran (by completion status), and re-type the survivors
according to a ``type_probabilities`` vector — e.g. ``100,0,0`` is the
all-rigid baseline, ``0,0,100`` all-malleable — with each job's compute
shaped by Amdahl's law so that resizing a moldable/malleable job has a
real cost model (a job that is 95% parallel gains far less from extra
nodes than one that is 99.99% parallel).

:func:`convert_trace` is the core: parsed :class:`~repro.workload.swf
.SwfRecord` lists in, simulator :class:`~repro.job.Job` lists out, with
exact largest-remainder type apportionment and per-job parallel fractions
drawn from a grid.  :func:`jobs_from_swf_block` is the campaign-facing
wrapper that materialises a ``workload: {"swf": {...}}`` scenario block
(see ``docs/STUDY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

from repro._input import ANY, COUNT, FLAG, GE0, GE1, GT0, INTEGER, LIST, NUMBER, REQUIRED, TEXT
from repro._input import read
from repro.job import Job, JobType
from repro.workload.apportion import largest_remainder
from repro.workload.generator import iterative_application
from repro.workload.swf import SwfError, SwfRecord, parse_swf

if TYPE_CHECKING:  # pragma: no cover - numpy loads when a generator first runs
    import numpy as np

#: The paper's ``parallel_percentage`` grid: each job is assigned one of
#: these parallel fractions (Amdahl serial fraction = 1 - value).
DEFAULT_PARALLEL_FRACTIONS = (0.9999, 0.999, 0.99, 0.98, 0.95)

#: Walltime = slack x the runtime recorded at the traced allocation.  The
#: default leaves room for a malleable job pinned at ``min_nodes`` (half
#: its traced size, hence at most ~2x the traced runtime) to finish.
DEFAULT_WALLTIME_SLACK = 2.5


@dataclass(frozen=True)
class TypeMix:
    """Probability vector over job types, in ``rigid,moldable,malleable`` order.

    Mirrors the ``type_probabilities`` parameter of the reference study:
    :meth:`parse` accepts both percent vectors (``"100,0,0"``) and
    fraction vectors (``"0.5,0.25,0.25"``).
    """

    rigid: float
    moldable: float
    malleable: float

    def __post_init__(self) -> None:
        shares = (self.rigid, self.moldable, self.malleable)
        if not min(shares) >= 0:  # "not >=": NaN is no share either
            raise SwfError(f"type mix shares must be >= 0: {shares}")
        total = sum(shares)
        if not abs(total - 1.0) <= 1e-9:
            raise SwfError(f"type mix must sum to 1, got {total!r}: {shares}")

    @classmethod
    def parse(cls, value: Union["TypeMix", str, Sequence[float]]) -> "TypeMix":
        """Coerce a mix given as TypeMix, ``"r,mo,ma"`` string, or 3-sequence."""
        if isinstance(value, cls):
            return value
        try:
            parts = value.split(",") if isinstance(value, str) else list(value)
            shares = [float(p) for p in parts]
        except (TypeError, ValueError):
            raise SwfError(f"non-numeric type mix: {value!r}") from None
        if len(shares) != 3:
            raise SwfError(
                f"type mix needs exactly rigid,moldable,malleable shares: {value!r}"
            )
        total = sum(shares)
        if total > 1.0 + 1e-9:  # percent vector, e.g. 100,0,0 or 40,30,30
            shares = [s / 100.0 for s in shares]
        return cls(*shares)

    @property
    def label(self) -> str:
        """Compact percent label for reports, e.g. ``"50-25-25"``."""
        return "-".join(f"{share * 100:g}" for share in
                        (self.rigid, self.moldable, self.malleable))


def _record_nodes(rec: SwfRecord, procs_per_node: int, max_nodes: Optional[int]) -> int:
    procs = rec.requested_procs if rec.requested_procs > 0 else rec.allocated_procs
    if procs <= 0:
        return 0
    nodes = max(1, (procs + procs_per_node - 1) // procs_per_node)
    if max_nodes is not None:
        nodes = min(nodes, max_nodes)
    return nodes


def convert_trace(
    records: Sequence[SwfRecord],
    mix: Union[TypeMix, str, Sequence[float]],
    rng: Optional[np.random.Generator] = None,
    *,
    node_flops: float,
    seed: int = 0,
    procs_per_node: int = 1,
    max_nodes: Optional[int] = None,
    parallel_fractions: Sequence[float] = DEFAULT_PARALLEL_FRACTIONS,
    iterations: int = 10,
    walltime_slack: float = DEFAULT_WALLTIME_SLACK,
    normalize_submit: bool = True,
    max_jobs: Optional[int] = None,
) -> List[Job]:
    """Convert parsed SWF records into a typed, Amdahl-shaped job mix.

    Records that did not actually run (:attr:`SwfRecord.simulable`) are
    dropped first; ``max_jobs`` then truncates the survivors (the fixture
    workflow for multi-week archive traces).  Types are apportioned over
    the survivors with the largest-remainder method — exactly
    ``mix.rigid * n`` rigid jobs up to quota rounding, never a silent
    truncation — and shuffled over the trace with ``rng`` (or a fresh
    ``default_rng(seed)``).

    Each job's compute is one :func:`iterative_application` whose total
    flops ``W`` solve ``W x (s + (1-s)/n) = run_time x node_flops`` at
    the traced allocation ``n``, i.e. the trace runtime is reproduced
    exactly at the recorded size and any resize pays (or gains) the
    Amdahl difference.  The serial fraction ``s = 1 - p`` comes from a
    per-job draw over ``parallel_fractions``.

    Moldable/malleable jobs keep the traced size as their preference and
    may shrink to half or grow to double it (clamped to ``max_nodes``).
    """
    if node_flops <= 0:
        raise SwfError("node_flops must be > 0")
    if procs_per_node < 1:
        raise SwfError("procs_per_node must be >= 1")
    if iterations < 1:
        raise SwfError("iterations must be >= 1")
    if walltime_slack <= 0:
        raise SwfError("walltime_slack must be > 0")
    if not parallel_fractions:
        raise SwfError("parallel_fractions must be non-empty")
    for fraction in parallel_fractions:
        if not 0 < float(fraction) <= 1:
            raise SwfError(f"parallel fractions must be in (0, 1]: {fraction!r}")
    import numpy as np

    mix = TypeMix.parse(mix)
    if rng is None:
        rng = np.random.default_rng(seed)

    usable = [
        rec
        for rec in records
        if rec.simulable and _record_nodes(rec, procs_per_node, max_nodes) > 0
    ]
    if max_jobs is not None:
        usable = usable[: int(max_jobs)]
    if not usable:
        raise SwfError("trace produced no simulable jobs")

    n = len(usable)
    _, n_moldable, n_malleable = largest_remainder(
        (mix.rigid, mix.moldable, mix.malleable), n
    )
    order = rng.permutation(n)
    types = np.zeros(n, dtype=np.int64)  # 0 rigid
    types[order[:n_moldable]] = 1
    types[order[n_moldable : n_moldable + n_malleable]] = 2
    fraction_picks = rng.integers(0, len(parallel_fractions), size=n)

    base_submit = min(rec.submit_time for rec in usable) if normalize_submit else 0.0
    code_to_type = {0: JobType.RIGID, 1: JobType.MOLDABLE, 2: JobType.MALLEABLE}

    jobs: List[Job] = []
    for i, rec in enumerate(usable):
        nodes = _record_nodes(rec, procs_per_node, max_nodes)
        job_type = code_to_type[int(types[i])]
        parallel = float(parallel_fractions[int(fraction_picks[i])])
        serial = 1.0 - parallel
        # Solve W from the traced runtime at the traced size under Amdahl:
        # per-node time on n nodes is W x (s + (1-s)/n) / node_flops.
        speedup_term = serial + (1.0 - serial) / nodes
        total_flops = rec.run_time * node_flops / speedup_term

        application = iterative_application(
            total_flops=total_flops,
            iterations=iterations,
            serial_fraction=serial,
            name=f"swf{rec.job_id}",
        )
        requested = rec.requested_time if rec.requested_time > 0 else rec.run_time
        walltime = walltime_slack * requested if requested > 0 else inf

        kwargs: dict = dict(
            job_type=job_type,
            submit_time=max(0.0, rec.submit_time - base_submit),
            num_nodes=nodes,
            walltime=walltime,
            name=f"swf-job{rec.job_id}",
            user=f"user{rec.user_id}" if rec.user_id >= 0 else None,
        )
        if job_type is not JobType.RIGID:
            kwargs["min_nodes"] = max(1, nodes // 2)
            kwargs["max_nodes"] = (
                nodes * 2 if max_nodes is None else min(nodes * 2, max_nodes)
            )
        jobs.append(Job(rec.job_id, application, **kwargs))

    jobs.sort(key=lambda job: (job.submit_time, job.jid))
    return jobs


_SWF_BLOCK = (
    ("file", TEXT, REQUIRED, 1),
    ("type_mix", ANY, REQUIRED, None),  # "r,mo,ma", or a list of three shares
    ("node_flops", NUMBER, REQUIRED, GT0),
    ("sha256", TEXT, None, None),
    ("parallel_fractions", LIST, DEFAULT_PARALLEL_FRACTIONS, (NUMBER, (0, False, 1))),
    ("procs_per_node", INTEGER, 1, GE1),
    ("max_nodes", INTEGER, None, GE1),
    ("iterations", INTEGER, 10, COUNT),
    ("walltime_slack", NUMBER, DEFAULT_WALLTIME_SLACK, GT0),
    ("normalize_submit", FLAG, True, None),
    ("max_jobs", INTEGER, None, GE1),
    ("seed", INTEGER, None, GE0),
)


def _read_swf_block(block: Any) -> Dict[str, Any]:
    """The checked values of an ``swf`` block; messages start with ``swf``."""
    values = read(block, _SWF_BLOCK, "swf", SwfError)
    if not isinstance(values["type_mix"], str):
        read({"type_mix": values["type_mix"]},
             (("type_mix", LIST, REQUIRED, (NUMBER, GE0)),), "swf", SwfError)
    try:
        TypeMix.parse(values["type_mix"])
    except SwfError as exc:
        raise SwfError(f"swf.type_mix: {exc}") from None
    return values


def jobs_from_swf_block(
    block: Mapping[str, Any],
    *,
    seed: int = 0,
    base: Optional[Path] = None,
) -> List[Job]:
    """Materialise a campaign ``{"swf": {...}}`` workload block.

    The worker-safe construction path: everything in ``block`` is plain
    JSON data.  Required keys are ``file``, ``type_mix`` and
    ``node_flops``; the rest mirror :func:`convert_trace` keyword
    arguments.  A ``sha256`` pin (normally injected by campaign loading)
    is verified against the file's actual content, so a cache keyed on
    the pinned spec can never be answered by a run over a different
    trace.  Every message starts with ``swf``, the key the block sits
    under.
    """
    values = _read_swf_block(block)
    path = Path(values.pop("file"))
    if base is not None and not path.is_absolute():
        path = base / path
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise SwfError(f"swf.file: cannot read SWF trace {path} ({exc.strerror or exc})") from None
    pinned = values.pop("sha256")
    if pinned is not None:
        import hashlib  # first use: `import repro` stays without it

        actual = hashlib.sha256(payload).hexdigest()
        if actual != pinned:
            raise SwfError(
                f"swf.file: SWF trace {path} content hash {actual[:12]}… does not "
                f"match the pinned {pinned[:12]}… — the file changed since the "
                "campaign was loaded"
            )
    if values["seed"] is None:
        values["seed"] = seed
    try:
        records = parse_swf(payload.decode("utf-8", errors="replace"))
        return convert_trace(records, values.pop("type_mix"), **values)
    except SwfError as exc:
        raise SwfError(f"swf.file: {path}: {exc}") from None


__all__ = [
    "DEFAULT_PARALLEL_FRACTIONS",
    "DEFAULT_WALLTIME_SLACK",
    "TypeMix",
    "convert_trace",
    "jobs_from_swf_block",
]
