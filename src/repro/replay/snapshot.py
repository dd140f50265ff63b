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
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro._input import InputError
from repro import __version__

#: Bump whenever the snapshot document or file layout changes incompatibly.
SCHEMA_VERSION = 6

#: Written into every file header: a checkpoint saved by another simulator
#: version verifies but is never resumed from (``whatif`` runs cold).
_SALT = f"elastisim-snapshot-v{__version__}"
#: The section lines of a snapshot file, in file order.
_SECTIONS = ("spec", "state")


class ReplayError(InputError):
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


class Snapshot:
    """A complete, self-describing simulation state at a quiet boundary.

    ``spec`` is the scenario spec the run was built from
    (``Simulation.from_spec``): restore rebuilds the static object graph
    from it and overlays ``state``, the per-module state dicts keyed "env"
    / "model" / "batch" / "platform" / "jobs" / "monitor" / "scheduler".
    A snapshot that came from :meth:`load` holds both as the verified
    bytes of their file sections and parses each on first access.
    """

    def __init__(
        self, schema_version: int, time: float, processed_events: int, spec: dict, state: dict
    ) -> None:
        self.schema_version = schema_version
        #: Simulated time of the boundary.
        self.time = time
        #: Events processed up to (and including) the boundary.
        self.processed_events = processed_events
        #: Jobs finished by the boundary.
        self.finished_jobs: int = state["batch"]["finished_count"]
        self._salt = _SALT
        #: Section name -> its document, or the bytes of its file line.
        self._sections: Dict[str, Union[dict, bytes]] = {"spec": spec, "state": state}
        self._spec_sha: Optional[str] = None

    def _section(self, name: str) -> dict:
        doc = self._sections[name]
        if isinstance(doc, bytes):
            doc = self._sections[name] = json.loads(doc)
        return doc

    spec = property(lambda self: self._section("spec"))
    state = property(lambda self: self._section("state"))

    def _mismatch(self, base_spec: dict) -> Optional[str]:
        """Why a run of ``base_spec`` must not resume from this checkpoint
        — written by another simulator version, or taken from a run of
        another spec — or None.  The spec is compared in memory or, while
        its section is still sealed (and stays so), by the header's digest
        against ``base_spec`` serialised the way :meth:`save` does."""
        if self._salt != _SALT:
            return f"checkpoint written by another simulator version ({self._salt})"
        mine = self._sections["spec"]
        if isinstance(mine, dict):
            same = mine is base_spec or mine == base_spec
        else:
            same = self._spec_sha == _sha256(json.dumps(base_spec).encode())
        return None if same else "checkpoint was not taken from the base scenario"

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
        _check_version(doc)
        try:
            return cls(
                schema_version=doc["schema_version"],
                time=doc["time"],
                processed_events=doc["processed_events"],
                spec=doc["spec"],
                state=doc["state"],
            )
        except (KeyError, TypeError) as exc:
            raise ReplayError(f"snapshot document lacks the key {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot file: a one-line JSON header (schema version,
        simulator salt, ``time``, ``processed_events``, ``finished_jobs``,
        each section's byte length and SHA-256, its own SHA-256), then one
        line of JSON per section, ``spec`` and ``state`` (``inf`` round-trips
        as Infinity).

        Atomically, from any number of threads: a reader of ``path`` sees
        the previous file or the whole new one, never a prefix (see
        :func:`repro._atomic.write_atomic`).
        """
        # Imported on first save: loading and resuming need no writer.
        from repro._atomic import write_atomic

        lines = [
            doc if isinstance(doc, bytes) else json.dumps(doc).encode()
            for doc in map(self._sections.get, _SECTIONS)
        ]
        header = {
            "schema_version": self.schema_version,
            "salt": self._salt,
            "time": self.time,
            "processed_events": self.processed_events,
            "finished_jobs": self.finished_jobs,
            "sections": {
                name: {"bytes": len(line), "sha256": _sha256(line)}
                for name, line in zip(_SECTIONS, lines)
            },
        }
        header["sha256"] = _sha256(json.dumps(header).encode())
        write_atomic(Path(path), b"\n".join([json.dumps(header).encode(), *lines, b""]))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        """Read a snapshot file and verify it whole: anything but a
        current-schema header followed by exactly the sections it
        describes, each of the stated length and digest — truncated, torn,
        a flipped byte, not JSON, a key missing — is a :class:`ReplayError`
        here, not at first use.  A section is parsed on first access."""
        first, _, body = Path(path).read_bytes().partition(b"\n")
        try:
            header = json.loads(first)
            if not isinstance(header, dict):
                raise ReplayError("the header is not a JSON object")
            _check_version(header)
            if header.pop("sha256") != _sha256(json.dumps(header).encode()):
                raise ReplayError("the header is damaged")
            snapshot = cls.__new__(cls)
            for key in ("schema_version", "time", "processed_events", "finished_jobs"):
                setattr(snapshot, key, header[key])
            snapshot._salt, sealed = header["salt"], header["sections"]
            snapshot._spec_sha = sealed["spec"]["sha256"]
            snapshot._sections = {}
            start = 0
            for name in _SECTIONS:
                end = start + sealed[name]["bytes"]
                line = snapshot._sections[name] = body[start:end]
                if body[end : end + 1] != b"\n" or _sha256(line) != sealed[name]["sha256"]:
                    raise ReplayError(f"section {name!r} is truncated or damaged")
                start = end + 1
            if start != len(body):
                raise ReplayError("bytes after the last section")
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            raise ReplayError(f"{path}: not a snapshot file ({exc})") from None
        except (KeyError, TypeError) as exc:
            raise ReplayError(f"{path}: malformed snapshot header ({exc})") from None
        except ReplayError as exc:
            raise ReplayError(f"{path}: {exc}") from None
        return snapshot

    def __repr__(self) -> str:
        return f"<Snapshot t={self.time:g} events={self.processed_events} v{self.schema_version}>"


def _sha256(data: bytes) -> str:
    import hashlib  # on first save or load: ``import repro.replay`` stays without it

    return hashlib.sha256(data).hexdigest()


def _check_version(doc: dict) -> None:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReplayError(
            f"snapshot schema version {version!r} not supported (expected {SCHEMA_VERSION})"
        )
