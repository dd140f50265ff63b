"""Pluggable campaign executors behind one async ``submit``/``shutdown`` protocol.

:class:`~repro.campaign.runner.CampaignRunner` no longer hardwires a
process pool: every backend implements :class:`BaseExecutor` — an async
``submit(fn, *args)`` returning the scenario record, plus ``shutdown()``
— and advertises what it can do through class-level capability flags.
Three implementations ship:

``in-process``
    Runs scenarios sequentially on the caller's event loop.  Zero
    concurrency, zero subprocesses: the deterministic debugging backend
    (breakpoints and profilers see straight through it).

``process-pool``
    The previous hardwired behavior, extracted: scenarios fan out over a
    :class:`concurrent.futures.ProcessPoolExecutor`.  A hard worker
    death (OOM kill, segfault) surfaces as :class:`ExecutorBroken` and
    the runner re-runs the affected scenarios in-process.

``queue-worker``
    Distributed: scenarios land in a filesystem-backed shared queue
    (:mod:`repro.campaign.queue`) and independent worker processes —
    spawned locally or started on other hosts with
    ``elastisim campaign worker --queue-dir`` — claim, execute, and
    publish results with lease-based crash recovery.

All backends feed the same ``run_scenario`` entry point, so ``result``
fingerprints are byte-identical across every executor — the serial /
parallel / cached identity contract extends to the whole matrix.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, Type

from repro.campaign.spec import CampaignError

#: Scenario records are plain dicts on both sides of the protocol.
ScenarioRecord = Dict[str, Any]


class ExecutorError(CampaignError):
    """Raised for executor misconfiguration (unknown name, missing options)."""


class ExecutorBroken(Exception):
    """The backend lost a scenario: a worker died, not the scenario itself.

    ``run_scenario`` already converts scenario failures into ``failed``
    records, so ``submit`` raising this means the *executor* broke
    underneath the work.  The runner responds by re-running the affected
    scenarios in-process, where per-scenario isolation still applies.
    """


class BaseExecutor(ABC):
    """Async submit/shutdown protocol every campaign backend implements.

    ``submit`` awaits one scenario to completion and returns its record;
    concurrency comes from the runner gathering many submits at once.
    Capability flags are class-level so callers (and tests) can reason
    about a backend without instantiating it.
    """

    #: Registry name (the ``--executor`` value).
    name: ClassVar[str] = "base"
    #: True when scenarios may run concurrently.
    parallel: ClassVar[bool] = False
    #: True when scenarios run in other processes (own memory, own pins).
    isolates_processes: ClassVar[bool] = False
    #: True when work may be picked up by workers on other hosts.
    distributed: ClassVar[bool] = False

    @abstractmethod
    async def submit(
        self, fn: Callable[..., ScenarioRecord], /, *args: Any
    ) -> ScenarioRecord:
        """Execute ``fn(*args)`` and return the scenario record."""

    async def shutdown(self, cancel: bool = False) -> None:
        """Release backend resources; with ``cancel`` drop queued work."""
        return None


class InProcessExecutor(BaseExecutor):
    """Sequential execution on the caller's loop: the debugging backend."""

    name = "in-process"

    async def submit(
        self, fn: Callable[..., ScenarioRecord], /, *args: Any
    ) -> ScenarioRecord:
        # Runs synchronously on the event loop: submits complete strictly
        # in submission order, which is exactly the deterministic serial
        # semantics this backend promises.
        return fn(*args)


class ProcessPoolCampaignExecutor(BaseExecutor):
    """The extracted pre-executor behavior: fan out over worker processes."""

    name = "process-pool"
    parallel = True
    isolates_processes = True

    def __init__(self, *, workers: Optional[int] = None) -> None:
        if workers is not None and int(workers) < 1:
            raise ExecutorError(f"process-pool needs >= 1 worker, got {workers}")
        self._workers = int(workers) if workers is not None else None
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    async def submit(
        self, fn: Callable[..., ScenarioRecord], /, *args: Any
    ) -> ScenarioRecord:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._ensure_pool(), partial(fn, *args))
        except BrokenProcessPool as exc:
            # One hard worker death poisons every in-flight future; each
            # affected submit reports broken and the runner re-runs the
            # survivors in-process.
            raise ExecutorBroken(f"process pool broke: {exc}") from exc

    async def shutdown(self, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not cancel, cancel_futures=cancel)
            self._pool = None


def _executor_types() -> Dict[str, Type[BaseExecutor]]:
    # Imported lazily: queue.py imports this module for BaseExecutor.
    from repro.campaign.queue import QueueWorkerExecutor

    return {
        cls.name: cls
        for cls in (
            InProcessExecutor,
            ProcessPoolCampaignExecutor,
            QueueWorkerExecutor,
        )
    }


def executor_names() -> Tuple[str, ...]:
    """Registry names, in documentation order."""
    return tuple(_executor_types())


def make_executor(name: str, **options: Any) -> BaseExecutor:
    """Build a registered executor by name.

    Options are backend-specific (``workers`` everywhere; ``queue_dir``,
    ``lease_s``, ``store`` … for ``queue-worker``); unknown names raise
    :class:`ExecutorError` listing the registry.
    """
    types = _executor_types()
    if name not in types:
        raise ExecutorError(
            f"unknown executor {name!r} (available: {', '.join(sorted(types))})"
        )
    cls = types[name]
    try:
        return cls(**options)
    except TypeError as exc:
        raise ExecutorError(f"bad options for executor {name!r}: {exc}") from None


__all__ = [
    "BaseExecutor",
    "ExecutorBroken",
    "ExecutorError",
    "InProcessExecutor",
    "ProcessPoolCampaignExecutor",
    "ScenarioRecord",
    "executor_names",
    "make_executor",
]
