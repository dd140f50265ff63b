"""Campaign executors: two plain methods and a name.

An executor is where the pending scenarios of a campaign run.  The whole
protocol is :class:`BaseExecutor`: ``run(payloads, *, trace_dir,
check_invariants, timeout)`` executes every payload through
:func:`~repro.campaign.runner.run_scenario` and returns an iterator of
``(position, record)`` in completion order; ``close()`` releases the
backend; ``name`` is what ``--executor`` selects and the report carries.

``in-process``
    A ``for`` loop in the calling process: breakpoints and profilers see
    straight through it.  Holding a :class:`repro.replay.WhatIfSession`
    is all ``--warm-start`` is.
``process-pool``
    ``pool.submit`` + :func:`concurrent.futures.as_completed`.
``queue-worker``
    Distributed (:mod:`repro.campaign.queue`): scenarios land in a shared
    directory, worker processes on any host claim and publish them, one
    loop polls for the results.

``run_scenario`` already turns a crashing *scenario* into a ``failed``
record; a backend that loses its *workers* raises :class:`ExecutorBroken`
from the iterator and the runner re-runs in-process every position it
was not handed.  Every backend feeds the one ``run_scenario``, so
``result`` fingerprints are byte-identical across executors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Type

from repro.campaign.spec import CampaignError

#: Scenario records are plain dicts on both sides of the protocol.
ScenarioRecord = Dict[str, Any]
#: What ``run`` returns: ``(position, record)`` pairs in completion order.
Records = Iterator[Tuple[int, ScenarioRecord]]


class ExecutorError(CampaignError):
    """Raised for executor misconfiguration (unknown name, missing options)."""


class ExecutorBroken(Exception):
    """The backend lost its workers (a scenario that crashes is a record).

    Raised from the iterator :meth:`BaseExecutor.run` returns.  Both real
    breakages are wholesale — a ``BrokenProcessPool`` poisons every
    in-flight future, the queue raises only once *all* spawned workers
    have exited — so one exception says it all.
    """


class BaseExecutor(ABC):
    """What every campaign backend implements: ``name``, ``run``, ``close``."""

    #: Registry name (the ``--executor`` value) and the report's label.
    name: str = "base"

    @abstractmethod
    def run(
        self,
        payloads: Sequence[ScenarioRecord],
        *,
        trace_dir: Optional[str] = None,
        check_invariants: bool = False,
        timeout: Optional[float] = None,
    ) -> Records:
        """Execute every payload through ``run_scenario`` (which takes the
        three options under these names); yield each record as it completes."""

    def close(self) -> None:
        """Release backend resources."""
        return None


class InProcessExecutor(BaseExecutor):
    """The ``for`` loop, in submission order: the debugging backend.

    With ``session`` (a :class:`repro.replay.WhatIfSession`) scenarios
    that share a workload prefix replay only their suffix.
    """

    name = "in-process"

    def __init__(self, *, session: Any = None) -> None:
        self._session = session
        if session is not None:
            self.name = "in-process+warm-start"

    def run(self, payloads: Sequence[ScenarioRecord], **options: Any) -> Records:
        # Imported here: the runner module imports this one.
        from repro.campaign.runner import run_scenario

        for position, payload in enumerate(payloads):
            yield position, run_scenario(payload, session=self._session, **options)


class ProcessPoolCampaignExecutor(BaseExecutor):
    """Fan out over the worker processes of one machine."""

    name = "process-pool"

    def __init__(self, *, workers: Optional[int] = None) -> None:
        if workers is not None and int(workers) < 1:
            raise ExecutorError(f"process-pool needs >= 1 worker, got {workers}")
        self._workers = int(workers) if workers is not None else None
        self._pool: Optional[ProcessPoolExecutor] = None

    def run(self, payloads: Sequence[ScenarioRecord], **options: Any) -> Records:
        from repro.campaign.runner import run_scenario

        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        try:
            futures = {
                self._pool.submit(run_scenario, payload, **options): position
                for position, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
        except BrokenProcessPool as exc:
            # One hard worker death (OOM kill, segfault) poisons every
            # future still in flight.
            raise ExecutorBroken(f"process pool broke: {exc}") from exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
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

    Options are backend-specific (``workers`` for the pool and the queue;
    ``queue_dir``, ``lease_s``, ``store_dir`` … for ``queue-worker``);
    unknown names raise :class:`ExecutorError` listing the registry.
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
    "Records",
    "ScenarioRecord",
    "executor_names",
    "make_executor",
]
