"""Snapshot container and the state-id registry.

A snapshot is a plain JSON-safe document: the scenario spec the run was
built from plus per-module state dicts (environment, fair-share model,
batch system, platform, jobs, monitor, scheduler).  No live object is
ever pickled — suspended generators are rebuilt at restore time by
deterministic re-entry (see docs/REPLAY.md).

State ids ("sids") are the glue between modules: every event that sits in
the environment's queue (and every shared object referenced across module
boundaries, like running activities) is *claimed* under a stable string id
by the module that owns it.  The environment's queue capture then refers
to entries by sid, and a restore re-links the rebuilt objects through the
same ids.  An unclaimed live queue entry at capture time is a hard error:
it means some state holder has no owner and would be silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Union


#: Bump whenever the snapshot document layout changes incompatibly.
SCHEMA_VERSION = 5


class ReplayError(Exception):
    """Raised for snapshots that cannot be captured, loaded, or restored."""


class SidRegistry:
    """Bidirectional object-identity ↔ state-id map used during capture
    and restore.

    Keys objects by ``id()`` — events and activities hash by identity
    anyway, but the registry must never invoke user-visible ``__eq__``.
    """

    def __init__(self) -> None:
        self._by_sid: Dict[str, Any] = {}
        self._by_obj: Dict[int, str] = {}

    def claim(self, sid: str, obj: Any) -> None:
        """Register ``obj`` under ``sid``; each side must be fresh."""
        if sid in self._by_sid:
            raise ReplayError(f"duplicate snapshot id {sid!r}")
        if id(obj) in self._by_obj:
            raise ReplayError(
                f"object {obj!r} already claimed as {self._by_obj[id(obj)]!r}, "
                f"cannot also claim it as {sid!r}"
            )
        self._by_sid[sid] = obj
        self._by_obj[id(obj)] = sid

    def sid_of(self, obj: Any) -> Union[str, None]:
        """The sid ``obj`` was claimed under, or None."""
        return self._by_obj.get(id(obj))

    def obj_of(self, sid: str) -> Any:
        """The object claimed under ``sid``; raises if unknown."""
        try:
            return self._by_sid[sid]
        except KeyError:
            raise ReplayError(f"unknown snapshot id {sid!r}") from None

    # The environment's queue restore speaks in terms of events.
    event_of = obj_of

    def __len__(self) -> int:
        return len(self._by_sid)


@dataclass
class Snapshot:
    """A complete, self-describing simulation state at a quiet boundary."""

    schema_version: int
    #: Simulated time of the boundary.
    time: float
    #: Events processed up to (and including) the boundary.
    processed_events: int
    #: The scenario spec the run was built from (``Simulation.from_spec``);
    #: restore rebuilds the static object graph from it and overlays state.
    spec: dict
    #: Per-module state dicts keyed "env" / "model" / "batch" / "platform"
    #: / "jobs" / "monitor" / "scheduler".
    state: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "time": self.time,
            "processed_events": self.processed_events,
            "spec": self.spec,
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Snapshot":
        if not isinstance(doc, dict):
            raise ReplayError(f"snapshot document is a {type(doc).__name__}, not an object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ReplayError(
                f"snapshot schema version {version!r} not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        try:
            return cls(
                schema_version=version,
                time=doc["time"],
                processed_events=doc["processed_events"],
                spec=doc["spec"],
                state=doc["state"],
            )
        except KeyError as exc:
            raise ReplayError(f"snapshot document lacks the key {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot as JSON (``inf`` round-trips as Infinity).

        Atomically, from any number of threads: a reader of ``path`` sees
        the previous file or the whole new one, never a prefix (see
        :func:`repro._atomic.write_json_atomic`).
        """
        # Imported on first save: loading and resuming need no writer.
        from repro._atomic import write_json_atomic

        write_json_atomic(Path(path), self.to_dict(), sort_keys=False)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        """Read a snapshot file; anything but a whole, current-schema
        document — truncated, not JSON, a key missing — is a
        :class:`ReplayError`."""
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            raise ReplayError(f"{path}: not a snapshot file ({exc})") from None
        try:
            return cls.from_dict(doc)
        except ReplayError as exc:
            raise ReplayError(f"{path}: {exc}") from None

    def __repr__(self) -> str:
        return (
            f"<Snapshot t={self.time:g} events={self.processed_events} "
            f"schema=v{self.schema_version}>"
        )
