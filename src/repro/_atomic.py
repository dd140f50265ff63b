"""The package's one atomic file write: result cache, scenario queue, snapshots."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` so that a reader of ``path`` sees the previous file
    or the whole new one, never a prefix.

    The bytes go to a temporary file beside ``path``, which then takes its
    name.  The temporary name is unique per call, so any number of
    threads, processes and hosts may write one path at once: each renames
    only what it wrote itself.  A failed write removes its temporary file.
    (Not ``fsync``ed: these files cache runs that can be repeated —
    surviving a crashed *process* is the point, not a crashed machine.)
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path: Path, payload: Any) -> None:
    """:func:`write_atomic` of ``payload`` as JSON with sorted keys."""
    write_atomic(path, json.dumps(payload, sort_keys=True).encode())
