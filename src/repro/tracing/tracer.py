"""The simulation flight recorder.

A :class:`Tracer` collects typed, timestamped records of everything that
happens inside a run — job lifecycle transitions, per-node task
activities, the reconfiguration protocol, scheduler invocations with
their decision outcomes, solver re-solves, node faults — buffered in
memory and exportable as JSONL (one record per line, the simulator's
native schema) or as Chrome trace-event JSON loadable in Perfetto /
``chrome://tracing``.

Records come in two phases, mirroring the Chrome model:

``"I"`` (instant)
    A point event: job submitted, scheduler invoked, node failed.
``"X"`` (complete span)
    An interval with a start time and a duration: a task computing on a
    node, a node being held by a job, a redistribution in flight.  Spans
    are *emitted at their end* (only then is the duration known), so the
    record stream is ordered by emission instant — ``time`` for
    instants, ``time + dur`` for spans.

Tracing is strictly opt-in: every producer holds an ``Optional[Tracer]``
and guards emission with ``if tracer is not None`` so a disabled tracer
costs one attribute check per would-be record (measured < 3% on the E5
benchmark, see ``docs/TRACING.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro._input import CHOICE, GE0, NUMBER, OBJECT, REQUIRED, TEXT, InputError, read

#: Bumped whenever the record schema changes shape.
SCHEMA_VERSION = 1

#: Reserved track names (everything else must be ``node:<index>``).
SCHEDULER_TRACK = "scheduler"
SOLVER_TRACK = "solver"
BATCH_TRACK = "batch"
KERNEL_TRACK = "kernel"

_KNOWN_TRACKS = (SCHEDULER_TRACK, SOLVER_TRACK, BATCH_TRACK, KERNEL_TRACK)


class TraceError(InputError):
    """Raised for malformed traces (import, export, or validation)."""


@dataclass(slots=True)
class TraceRecord:
    """One flight-recorder entry.

    Attributes
    ----------
    time:
        Simulated seconds.  For spans this is the *start* of the
        interval; the emission instant is ``time + dur``.
    kind:
        Dotted category, e.g. ``"job.start"``, ``"task.run"``,
        ``"solver.resolve"`` (see ``docs/TRACING.md`` for the catalogue).
    phase:
        ``"I"`` for instants, ``"X"`` for complete spans.
    track:
        Where the record belongs: ``"node:<i>"`` or one of the reserved
        tracks (``scheduler``, ``solver``, ``batch``, ``kernel``).
    name:
        Human-readable label (job name, task name, invocation type).
    dur:
        Span duration in simulated seconds (0.0 for instants).
    args:
        Structured attributes (job id, node lists, decision outcomes).
    """

    time: float
    kind: str
    phase: str
    track: str
    name: str
    dur: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Emission instant: ``time`` for instants, span end for spans."""
        return self.time + self.dur

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "time": self.time,
            "kind": self.kind,
            "ph": self.phase,
            "track": self.track,
            "name": self.name,
        }
        if self.phase == "X":
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceRecord":
        values = read(payload, _RECORD, "", TraceError)
        values["phase"] = values.pop("ph")
        values["args"] = dict(values["args"] or {})
        return cls(**values)


_RECORD = (
    ("time", NUMBER, REQUIRED, None),
    ("kind", TEXT, REQUIRED, None),
    ("ph", CHOICE, REQUIRED, ("I", "X")),
    ("track", TEXT, REQUIRED, None),
    ("name", TEXT, REQUIRED, None),
    ("dur", NUMBER, 0.0, GE0),
    ("args", OBJECT, None, None),
)


class Tracer:
    """In-memory structured trace buffer with optional live subscribers.

    Producers call :meth:`instant` / :meth:`span` (or the
    :meth:`begin` / :meth:`end` pair for spans whose end is not known
    up front).  Consumers either read :attr:`records` after the run or
    :meth:`subscribe` a callback to see records as they are emitted —
    the online invariant checker uses the latter.
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        #: Open span bookkeeping: key -> (start, kind, track, name, args).
        self._open: Dict[Any, Tuple[float, str, str, str, Dict[str, Any]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every record as soon as it is emitted."""
        self._subscribers.append(callback)

    # -- emission -----------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        self.records.append(record)
        for callback in self._subscribers:
            callback(record)

    def instant(self, kind: str, track: str, name: str, time: float, **args: Any) -> None:
        """Record a point event at ``time``."""
        self._emit(TraceRecord(time, kind, "I", track, name, 0.0, args))

    def span(
        self,
        kind: str,
        track: str,
        name: str,
        start: float,
        end: float,
        **args: Any,
    ) -> None:
        """Record a completed interval ``[start, end]``."""
        if end < start:
            raise TraceError(f"span {kind}/{name}: end {end} before start {start}")
        self._emit(TraceRecord(start, kind, "X", track, name, end - start, args))

    def begin(
        self, key: Any, kind: str, track: str, name: str, time: float, **args: Any
    ) -> None:
        """Open a span under ``key``; :meth:`end` with the same key closes it.

        Re-opening a live key discards the stale entry (producers that
        lose track of an interval must not corrupt later ones).
        """
        self._open[key] = (time, kind, track, name, args)

    def end(self, key: Any, time: float, **args: Any) -> None:
        """Close the span opened under ``key``; unknown keys are ignored."""
        entry = self._open.pop(key, None)
        if entry is None:
            return
        start, kind, track, name, open_args = entry
        merged = {**open_args, **args}
        self.span(kind, track, name, start, time, **merged)

    def close_open(self, time: float) -> int:
        """Close every dangling span at ``time`` (end of run).

        Closed records gain ``open=True`` so consumers can tell a span
        truncated by the simulation end from one that completed.
        """
        keys = list(self._open)
        for key in keys:
            self.end(key, time, open=True)
        return len(keys)

    # -- JSONL export -------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """The trace as JSONL: a header line, then one record per line."""
        yield json.dumps(
            {"schema": "elastisim-trace", "version": SCHEMA_VERSION},
            sort_keys=True,
        )
        for record in self.records:
            yield json.dumps(record.as_dict(), sort_keys=True)

    def to_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSONL and return the path."""
        path = Path(path)
        with path.open("w") as stream:
            for line in self.jsonl_lines():
                stream.write(line)
                stream.write("\n")
        return path

    # -- Chrome trace-event export ------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The trace in Chrome trace-event format (Perfetto-loadable).

        Simulated seconds map to trace microseconds (``ts = time * 1e6``)
        so one simulated second reads as one "millisecond-scale" unit in
        the viewer.  Tracks map to (pid, tid) pairs: the reserved tracks
        live in process 1 ("simulator"), per-node tracks in process 2
        ("nodes") with ``tid = node index``.  Metadata records name every
        process and thread.
        """
        events: List[Dict[str, Any]] = []
        seen_tracks: Dict[str, Tuple[int, int]] = {}

        def track_ids(track: str) -> Tuple[int, int]:
            ids = seen_tracks.get(track)
            if ids is None:
                ids = _chrome_track_ids(track)
                seen_tracks[track] = ids
            return ids

        for record in self.records:
            pid, tid = track_ids(record.track)
            event: Dict[str, Any] = {
                "name": record.name,
                "cat": record.kind,
                "pid": pid,
                "tid": tid,
                "ts": record.time * 1e6,
            }
            if record.phase == "X":
                event["ph"] = "X"
                event["dur"] = record.dur * 1e6
            else:
                event["ph"] = "i"
                event["s"] = "t"
            if record.args:
                event["args"] = _json_safe_args(record.args)
            events.append(event)

        metadata: List[Dict[str, Any]] = []
        pids_named = set()
        for track, (pid, tid) in sorted(seen_tracks.items(), key=lambda kv: kv[1]):
            if pid not in pids_named:
                pids_named.add(pid)
                metadata.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": "simulator" if pid == 1 else "nodes"},
                    }
                )
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "elastisim-trace", "version": SCHEMA_VERSION},
        }

    def to_chrome(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace-event JSON (validated) and return the path."""
        trace = self.chrome_trace()
        validate_chrome_trace(trace)
        path = Path(path)
        path.write_text(json.dumps(trace))
        return path


def _chrome_track_ids(track: str) -> Tuple[int, int]:
    """Map a track name to a Chrome (pid, tid) pair."""
    if track in _KNOWN_TRACKS:
        return (1, _KNOWN_TRACKS.index(track))
    if track.startswith("node:"):
        try:
            return (2, int(track.split(":", 1)[1]))
        except ValueError:
            raise TraceError(f"bad node track {track!r}") from None
    raise TraceError(
        f"unknown track {track!r}: expected node:<index> or one of {_KNOWN_TRACKS}"
    )


def _json_safe_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """Collapse non-finite floats (inf walltimes) so strict JSON accepts them."""
    safe: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            safe[key] = None
        else:
            safe[key] = value
    return safe


# -- import / validation ----------------------------------------------------


def read_jsonl(source: Union[str, Path, Iterable[str]]) -> List[TraceRecord]:
    """Load a JSONL trace (path or iterable of lines) back into records."""
    where = "line "  # what a message starts with, before the line number
    if isinstance(source, (str, Path)):
        where = f"{source}:"
        try:
            lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise TraceError(f"{source}: cannot read the file ({exc.strerror or exc})") from None
        except UnicodeDecodeError:
            raise TraceError(f"{source}: not UTF-8 text") from None
    else:
        lines = source
    records: List[TraceRecord] = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            if not header_seen and isinstance(payload, dict):
                header_seen = True
                if payload.get("schema") == "elastisim-trace":
                    version = payload.get("version")
                    if version != SCHEMA_VERSION:
                        raise TraceError(
                            f"unsupported trace version {version!r} "
                            f"(this build reads version {SCHEMA_VERSION})"
                        )
                    continue
                # Headerless traces (hand-written fixtures) are accepted.
            records.append(TraceRecord.from_dict(payload))
        except json.JSONDecodeError as exc:
            raise TraceError(f"{where}{lineno}: not JSON ({exc})") from None
        except TraceError as exc:
            raise TraceError(f"{where}{lineno}: {exc}") from None
    return records


#: Chrome event phases the exporter produces.
_CHROME_PHASES = ("X", "i", "M")


def validate_chrome_trace(trace: Any) -> None:
    """Validate a Chrome trace-event object against the exporter's schema.

    Raises :class:`TraceError` on the first problem.  This is the
    round-trip gate: ``Tracer.to_chrome`` always validates its own
    output, and ``elastisim trace check --chrome`` validates files.
    """
    if not isinstance(trace, dict):
        raise TraceError(f"chrome trace must be an object, got {type(trace).__name__}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("chrome trace needs a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _CHROME_PHASES:
            raise TraceError(f"{where}: bad phase {phase!r} (expected {_CHROME_PHASES})")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise TraceError(f"{where}: missing {key!r}")
        if not isinstance(event["name"], str):
            raise TraceError(f"{where}: name must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                raise TraceError(f"{where}: {key} must be an int")
        if phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise TraceError(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts:
            raise TraceError(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                raise TraceError(f"{where}: span needs dur >= 0, got {dur!r}")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise TraceError(f"{where}: args must be an object")


def convert_jsonl_to_chrome(
    source: Union[str, Path], destination: Union[str, Path]
) -> Path:
    """Convert a JSONL trace file to a validated Chrome trace-event file."""
    tracer = Tracer()
    tracer.records = read_jsonl(source)
    return tracer.to_chrome(destination)
