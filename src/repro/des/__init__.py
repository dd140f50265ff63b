"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event simulation (DES) core in the
spirit of SimPy / SimGrid's simulation loop.  It is the substrate on which
the whole batch-system simulator runs: the fair-sharing activity engine
(:mod:`repro.sharing`), the job execution engine (:mod:`repro.engine`) and
the batch system (:mod:`repro.batch`) are all expressed as processes and
events on an :class:`Environment`.

Design points
-------------
* **Deterministic ordering.**  The event queue orders by
  ``(time, priority, insertion id)`` so identical runs replay identically —
  a hard requirement for reproducible experiments.
* **Generator processes.**  A process is a Python generator that yields
  events; the kernel resumes it when the yielded event fires.  Processes can
  be interrupted (used for job kills and malleable reconfiguration).
* **Composable conditions.**  ``AllOf`` / ``AnyOf`` let the execution engine
  wait on groups of activities (e.g. "all flows of an all-to-all finished").

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5)
...     return env.now
>>> p = env.process(proc(env))
>>> env.run()
>>> p.value
5
"""

from repro.des.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Timeout,
    PENDING,
    URGENT,
    NORMAL,
)
from repro.des.exceptions import Interrupt, SimulationError, StopSimulation
from repro.des.process import Process
from repro.des.environment import Environment, EmptySchedule

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "PENDING",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "URGENT",
]
