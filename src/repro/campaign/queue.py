"""Filesystem-backed shared scenario queue for distributed campaigns.

The queue is a directory any number of worker processes — on this host
or others sharing the filesystem (NFS, a job array's shared scratch) —
can attach to::

    <queue-dir>/
        queue.json                  manifest: format, salt, lease,
                                    run options, shared-store dir
        tasks/<id>.json             scenario payloads (atomic writes)
        claims/<id>.json            atomic claim files; mtime = heartbeat
        results/<id>.json           one result record per task (atomic)
        increments/<worker>.jsonl   streaming per-worker result increments
        closed                      marker: no more tasks are coming

**Claim protocol.**  A worker lists unfinished tasks and creates
``claims/<id>.json`` with ``O_CREAT | O_EXCL`` — the filesystem
guarantees exactly one winner per task.  While the scenario runs, a
background thread refreshes the claim's mtime (the heartbeat); the
result is written atomically and the claim removed.  A claim whose
mtime is older than the lease belongs to a presumed-dead worker: any
worker (or the coordinating executor) deletes it, after which the task
is claimable again.  Scenario execution is deterministic, so the rare
double execution when a slow worker races its own reclaimed task is
harmless — both sides write byte-identical results.

**Dedupe.**  Tasks carry their content-address key; workers consult the
result cache the manifest names (:class:`~repro.campaign.cache.ResultCache`,
local tree plus shared tree) before running and publish fresh results
back to it, so a fleet serving many campaigns computes each distinct
scenario once.

**Coordination.**  :class:`QueueWorkerExecutor` enqueues everything, then
runs *one* loop: per tick it lists ``results/`` once, scavenges expired
claims once and checks its fleet once, however many scenarios are pending.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro._atomic import write_json_atomic
from repro.campaign.cache import ResultCache
from repro.campaign.executors import (
    BaseExecutor,
    ExecutorBroken,
    ExecutorError,
    Records,
    ScenarioRecord,
)
from repro.campaign.spec import DEFAULT_SALT, CampaignError, scenario_key

#: Manifest schema version; bump on incompatible layout changes.
QUEUE_FORMAT = 1

#: Default seconds before an unrefreshed claim is presumed dead.
DEFAULT_LEASE_S = 30.0


class QueueError(CampaignError):
    """Raised for malformed or missing queue directories."""


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Parse a queue file; unreadable/corrupt (mid-write) reads are None."""
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


class ScenarioQueue:
    """One campaign's shared task/claim/result directory."""

    MANIFEST = "queue.json"
    CLOSED = "closed"

    def __init__(self, root: Union[str, Path], manifest: Dict[str, Any]) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.increments_dir = self.root / "increments"

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Union[str, Path],
        *,
        salt: str = DEFAULT_SALT,
        lease_s: float = DEFAULT_LEASE_S,
        store_dir: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> "ScenarioQueue":
        """Initialise a queue directory and write its manifest."""
        root = Path(root)
        if (root / cls.MANIFEST).exists():
            raise QueueError(f"queue already exists at {root}")
        manifest: Dict[str, Any] = {
            "format": QUEUE_FORMAT,
            "salt": salt,
            "lease_s": float(lease_s),
            "store_dir": str(store_dir) if store_dir is not None else None,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "options": dict(options or {}),
        }
        queue = cls(root, manifest)
        for directory in (
            queue.tasks_dir,
            queue.claims_dir,
            queue.results_dir,
            queue.increments_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        write_json_atomic(root / cls.MANIFEST, manifest)
        return queue

    @classmethod
    def open(cls, root: Union[str, Path]) -> "ScenarioQueue":
        """Attach to an existing queue directory."""
        root = Path(root)
        manifest = _read_json(root / cls.MANIFEST)
        if manifest is None or manifest.get("format") != QUEUE_FORMAT:
            raise QueueError(f"no compatible queue manifest at {root / cls.MANIFEST}")
        return cls(root, manifest)

    def close(self) -> None:
        """Mark the queue complete: workers drain what is left and exit."""
        (self.root / self.CLOSED).touch()

    @property
    def is_closed(self) -> bool:
        return (self.root / self.CLOSED).exists()

    @property
    def lease_s(self) -> float:
        return float(self.manifest.get("lease_s", DEFAULT_LEASE_S))

    # -- tasks --------------------------------------------------------------

    def enqueue(self, task_id: str, payload: Dict[str, Any], key: str) -> None:
        """Publish one scenario; visible to workers once the rename lands."""
        write_json_atomic(
            self.tasks_dir / f"{task_id}.json",
            {"id": task_id, "key": key, "scenario": payload},
        )

    def read_task(self, task_id: str) -> Optional[Dict[str, Any]]:
        return _read_json(self.tasks_dir / f"{task_id}.json")

    def task_ids(self) -> List[str]:
        if not self.tasks_dir.is_dir():
            return []
        return sorted(p.stem for p in self.tasks_dir.glob("*.json"))

    def unfinished(self) -> List[str]:
        return [tid for tid in self.task_ids() if not self.has_result(tid)]

    def claimable(self) -> List[str]:
        """Unfinished tasks with no live claim (stale claims excluded)."""
        now = time.time()
        out = []
        for tid in self.unfinished():
            age = self._claim_age(tid, now)
            if age is None or age > self.lease_s:
                out.append(tid)
        return out

    # -- claims -------------------------------------------------------------

    def _claim_path(self, task_id: str) -> Path:
        return self.claims_dir / f"{task_id}.json"

    def _claim_age(self, task_id: str, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the claim's last heartbeat, or None when unclaimed."""
        try:
            mtime = self._claim_path(task_id).stat().st_mtime
        except OSError:
            return None
        return (now if now is not None else time.time()) - mtime

    def try_claim(self, task_id: str, worker: str) -> bool:
        """Atomically claim a task; exactly one caller wins."""
        path = self._claim_path(task_id)
        payload = json.dumps(
            {"worker": worker, "pid": os.getpid(), "host": socket.gethostname()}
        )
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except OSError:  # FileExistsError: somebody else won
            return False
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def heartbeat(self, task_id: str) -> None:
        """Refresh a claim's lease (touch its mtime)."""
        try:
            os.utime(self._claim_path(task_id))
        except OSError:
            pass

    def release(self, task_id: str) -> None:
        try:
            self._claim_path(task_id).unlink()
        except OSError:
            pass

    def reclaim_stale(self, lease_s: Optional[float] = None) -> List[str]:
        """Drop claims whose lease expired; returns the reclaimed task ids.

        Deleting a stale claim is safe even when the original owner is
        merely slow: results are written atomically and deterministic
        scenarios make double execution byte-identical, so the worst
        case of a reclaim race is redundant work, never a wrong answer.
        """
        lease = self.lease_s if lease_s is None else float(lease_s)
        now = time.time()
        reclaimed = []
        for path in self.claims_dir.glob("*.json"):
            tid = path.stem
            if self.has_result(tid):
                # Finished task with a leftover claim (owner died between
                # result write and release): just tidy up.
                self.release(tid)
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age > lease:
                self.release(tid)
                reclaimed.append(tid)
        return reclaimed

    # -- results ------------------------------------------------------------

    def _result_path(self, task_id: str) -> Path:
        return self.results_dir / f"{task_id}.json"

    def has_result(self, task_id: str) -> bool:
        return self._result_path(task_id).is_file()

    def write_result(self, task_id: str, record: ScenarioRecord) -> None:
        write_json_atomic(self._result_path(task_id), record)

    def read_result(self, task_id: str) -> Optional[ScenarioRecord]:
        return _read_json(self._result_path(task_id))

    def finished(self) -> List[str]:
        """Ids of the tasks with a published result: one listing of ``results/``."""
        return sorted(p.stem for p in self.results_dir.glob("*.json"))

    def append_increment(self, worker: str, record: ScenarioRecord) -> None:
        """Append a result line to this worker's JSONL increment stream.

        Single-line ``O_APPEND`` writes keep the stream parseable even
        with many workers on one shared filesystem; the streaming
        aggregator (:mod:`repro.campaign.aggregate`) folds these shards
        without ever materialising the full result set.
        """
        self.increments_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        with (self.increments_dir / f"{worker}.jsonl").open("a") as stream:
            stream.write(line)

    def increment_paths(self) -> List[Path]:
        if not self.increments_dir.is_dir():
            return []
        return sorted(self.increments_dir.glob("*.jsonl"))


class _Heartbeat(threading.Thread):
    """Background thread refreshing one claim's lease while a scenario runs."""

    def __init__(self, queue: ScenarioQueue, task_id: str, interval_s: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{task_id}")
        self._queue = queue
        self._task_id = task_id
        self._interval_s = interval_s
        # Not named _stop: threading.Thread owns a private _stop() method
        # that join() calls internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            self._queue.heartbeat(self._task_id)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=1.0)


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def worker_loop(
    queue_dir: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    lease_s: Optional[float] = None,
    poll_s: float = 0.2,
    max_tasks: Optional[int] = None,
    exit_when_idle: bool = False,
    wait_for_queue_s: float = 60.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Pull scenarios from a shared queue until it drains; returns tasks run.

    This is the body of ``elastisim campaign worker``: claim, heartbeat,
    execute (or answer from the result cache the manifest names), publish,
    repeat.
    The loop also scavenges expired claims each pass, so a fleet heals
    itself after any member dies.  Exit conditions: the queue is closed
    and fully drained; ``exit_when_idle`` and nothing is claimable;
    ``max_tasks`` executed.
    """
    from repro.campaign.runner import run_scenario

    queue = _wait_for_queue(queue_dir, wait_for_queue_s, poll_s)
    wid = worker_id or _default_worker_id()
    lease = queue.lease_s if lease_s is None else float(lease_s)
    options = queue.manifest.get("options", {})
    store: Optional[ResultCache] = None
    store_dir = queue.manifest.get("store_dir")
    cache_dir = queue.manifest.get("cache_dir")
    if store_dir or cache_dir:
        store = ResultCache(
            cache_dir, shared_root=store_dir, salt=queue.manifest.get("salt") or DEFAULT_SALT
        )
    say = log or (lambda message: None)
    executed = 0

    while True:
        queue.reclaim_stale(lease)
        claimed: Optional[str] = None
        for tid in queue.claimable():
            if queue.try_claim(tid, wid):
                claimed = tid
                break
        if claimed is None:
            if queue.is_closed and not queue.unfinished():
                break
            if exit_when_idle and not queue.claimable():
                break
            time.sleep(poll_s)
            continue

        task = queue.read_task(claimed)
        if task is None:
            queue.release(claimed)
            time.sleep(poll_s)
            continue
        key = str(task.get("key", ""))
        record: Optional[ScenarioRecord] = None
        if store is not None and key:
            record = store.lookup(key)
        if record is not None:
            record = dict(record)
            record["cached"] = True
            say(f"{wid}: {claimed} answered from store")
        else:
            heartbeat = _Heartbeat(queue, claimed, max(lease / 5.0, 0.05))
            heartbeat.start()
            try:
                record = run_scenario(
                    task.get("scenario", {}),
                    options.get("trace_dir"),
                    bool(options.get("check_invariants", False)),
                    options.get("scenario_timeout"),
                )
            finally:
                heartbeat.stop()
            if store is not None and key:
                store.store(key, {k: v for k, v in record.items() if k != "trace"})
            say(f"{wid}: {claimed} {record.get('status', '?')}")
        queue.write_result(claimed, record)
        queue.append_increment(wid, {k: v for k, v in record.items() if k != "trace"})
        queue.release(claimed)
        executed += 1
        if max_tasks is not None and executed >= max_tasks:
            break
    return executed


def _wait_for_queue(
    queue_dir: Union[str, Path], wait_s: float, poll_s: float
) -> ScenarioQueue:
    """Open a queue, waiting for its manifest to appear.

    Workers routinely start *before* the coordinating campaign (the
    nightly distributed smoke does exactly this), so attachment tolerates
    a not-yet-created queue up to ``wait_s`` seconds.
    """
    deadline = time.monotonic() + max(0.0, wait_s)
    while True:
        try:
            return ScenarioQueue.open(queue_dir)
        except QueueError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(max(poll_s, 0.05))


def spawn_worker(
    queue_dir: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    lease_s: Optional[float] = None,
    extra_args: Sequence[str] = (),
) -> "subprocess.Popen[bytes]":
    """Start a local ``elastisim campaign worker`` subprocess.

    The child inherits the current interpreter and gets ``repro``'s
    parent directory prepended to ``PYTHONPATH``, so spawning works from
    source checkouts and installed environments alike.
    """
    import repro

    args = [
        sys.executable,
        "-m",
        "repro",
        "campaign",
        "worker",
        "--queue-dir",
        str(queue_dir),
    ]
    if worker_id is not None:
        args += ["--worker-id", worker_id]
    if lease_s is not None:
        args += ["--lease", str(lease_s)]
    args += list(extra_args)
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env
    )


class QueueWorkerExecutor(BaseExecutor):
    """Distributed executor: scenarios flow through a shared queue.

    ``workers`` local worker processes are spawned on construction
    (``workers=0`` relies entirely on externally started workers —
    ``elastisim campaign worker --queue-dir`` on any host sharing the
    filesystem).  ``run`` enqueues every payload and then polls; it also
    scavenges expired claims, so scenarios orphaned by a killed worker
    are re-claimed by the rest of the fleet.  If every *spawned* worker
    has exited and no external worker finishes the rest within a lease,
    the iterator raises :class:`ExecutorBroken`.

    Workers read their run options from the queue manifest, written on
    construction from ``run_options`` — which the runner fills with what
    it passes to ``run``, so ``run`` itself has nothing to do with them.
    """

    name = "queue-worker"

    def __init__(
        self,
        *,
        queue_dir: Optional[Union[str, Path]] = None,
        workers: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.05,
        salt: str = DEFAULT_SALT,
        store_dir: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        run_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if queue_dir is None:
            raise ExecutorError("queue-worker executor needs queue_dir")
        self._poll_s = max(float(poll_s), 0.01)
        self._lease_s = float(lease_s)
        self._salt = salt
        self.queue = ScenarioQueue.create(
            queue_dir,
            salt=salt,
            lease_s=lease_s,
            store_dir=store_dir,
            cache_dir=cache_dir,
            options=run_options,
        )
        self._counter = 0
        self._spawned: List["subprocess.Popen[bytes]"] = [
            spawn_worker(self.queue.root) for _ in range(max(0, int(workers)))
        ]

    def _fleet_dead(self) -> bool:
        """True when local workers were requested and all have exited."""
        return bool(self._spawned) and all(
            proc.poll() is not None for proc in self._spawned
        )

    def run(self, payloads: Sequence[ScenarioRecord], **options: Any) -> Records:
        waiting: Dict[str, int] = {}
        for position, payload in enumerate(payloads):
            self._counter += 1
            task_id = f"{self._counter:06d}"
            # Content address of the physics part (labels excluded), matching
            # the runner's cache keys: workers dedupe through the shared tree
            # on exactly the same addresses.
            spec_part = {k: v for k, v in payload.items() if k not in ("name", "params")}
            self.queue.enqueue(task_id, payload, scenario_key(spec_part, salt=self._salt))
            waiting[task_id] = position
        grace_until: Optional[float] = None
        while True:
            for task_id in self.queue.finished():
                if task_id in waiting:
                    record = self.queue.read_result(task_id)
                    if record is not None:
                        yield waiting.pop(task_id), record
            if not waiting:
                return
            # Executor-side scavenging: even a fleet of one dead worker
            # cannot strand a claim past its lease.
            self.queue.reclaim_stale()
            if self._fleet_dead():
                # Give external workers one lease to finish the rest
                # before declaring it lost.
                now = time.monotonic()
                if grace_until is None:
                    grace_until = now + self._lease_s
                elif now >= grace_until:
                    raise ExecutorBroken(
                        f"all spawned queue workers exited with "
                        f"{len(waiting)} task(s) unfinished"
                    )
            time.sleep(self._poll_s)

    def close(self) -> None:
        self.queue.close()
        deadline = time.monotonic() + 10.0
        for proc in self._spawned:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()


__all__ = [
    "DEFAULT_LEASE_S",
    "QUEUE_FORMAT",
    "QueueError",
    "QueueWorkerExecutor",
    "ScenarioQueue",
    "spawn_worker",
    "worker_loop",
]
