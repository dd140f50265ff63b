"""Content-addressed on-disk cache of scenario results.

Layout (two-level fan-out keeps directories small on big campaigns)::

    <root>/
        <key[:2]>/<key>.json      one scenario record per file

``key`` is the SHA-256 of the canonicalised scenario spec salted with the
simulator version (:data:`repro.campaign.spec.DEFAULT_SALT`): any change
to the physics of a scenario — or to the simulator itself — moves the
scenario to a new address, so stale entries can never be *wrong*, only
unreachable.  Writes are atomic (:func:`repro._atomic.write_json_atomic`)
so a campaign killed mid-flight never leaves a truncated record behind,
and concurrent writers — threads, processes, hosts — can only ever race
to put byte-identical records at one address.

With ``shared_root`` the same keys resolve in a second tree on a
filesystem every worker can reach (NFS scratch, a job array's project
directory), so a fleet of queue workers — and every later campaign
pointed at the same directory — computes each scenario once:
**read-through** — a local miss falls through to the shared tree, and a
shared hit is copied back so the next lookup on this host stays local —
and **write-through** — fresh results land in both trees.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro._atomic import write_json_atomic
from repro.campaign.spec import DEFAULT_SALT

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "ELASTISIM_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$ELASTISIM_CACHE_DIR``, else ``~/.cache/elastisim/campaigns``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "elastisim" / "campaigns"


class ResultCache:
    """A content-addressed store of successful scenario records.

    ``hits`` and ``misses`` count lookups against the local tree;
    ``shared_hits`` counts the local misses the shared tree answered.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        shared_root: Union[str, Path, None] = None,
        salt: str = DEFAULT_SALT,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt
        self.hits = 0
        self.misses = 0
        #: The second tree (a plain cache over ``shared_root``), or None.
        self.shared: Optional[ResultCache] = (
            ResultCache(shared_root, salt=salt) if shared_root is not None else None
        )
        self.shared_hits = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or ``None`` on a miss.

        Corrupt entries (partial writes from pre-atomic-rename tooling,
        disk faults) are treated as misses and removed.  A local miss is
        looked up in the shared tree and, when found, copied back.
        """
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            record = None
        except (OSError, json.JSONDecodeError):
            try:
                path.unlink()
            except OSError:
                pass
            record = None
        if isinstance(record, dict) and record.get("status") == "ok":
            self.hits += 1
            return record
        self.misses += 1
        if self.shared is None:
            return None
        record = self.shared.lookup(key)
        if record is not None:
            self.shared_hits += 1
            write_json_atomic(path, record)
        return record

    def store(self, key: str, record: Dict[str, Any]) -> Optional[Path]:
        """Persist a successful record (in both trees); failed runs are
        never cached."""
        if record.get("status") != "ok":
            return None
        path = self.path_for(key)
        write_json_atomic(path, record)
        if self.shared is not None:
            self.shared.store(key, record)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Remove every entry; returns the number of records dropped."""
        dropped = 0
        if not self.root.is_dir():
            return dropped
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                dropped += 1
            except OSError:
                pass
        return dropped


__all__ = ["CACHE_DIR_ENV", "ResultCache", "default_cache_dir"]
