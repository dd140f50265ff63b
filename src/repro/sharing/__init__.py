"""Fair-sharing activity engine (the SimGrid-model substitute).

SimGrid — the substrate of the original ElastiSim — advances *activities*
(computations, network flows, I/O transfers) whose progress rates are the
solution of a max-min fairness problem over shared resources (CPUs, links,
file-system servers).  This package reimplements that model:

* :class:`SharedResource` — a capacity in work-units/second (flops/s for
  compute, bytes/s for links and PFS servers).
* :class:`Activity` — an amount of remaining work drawing on one or more
  resources, optionally rate-bounded and weighted.
* :class:`FairShareModel` — solves weighted max-min fair rate allocation
  (progressive filling) each time the activity set changes and drives
  activity completion events on a DES :class:`~repro.des.Environment`.
* :class:`Fanout` — the handle of a task fan-out: many identical
  activities started, waited for and cancelled as one.

The solver guarantees two invariants that the property-based tests pin down:

1. **No over-subscription**: for every resource, the summed consumption of
   its activities never exceeds its capacity (within float tolerance).
2. **Work conservation / max-min optimality**: an activity's rate can only
   be increased by decreasing the rate of another activity that already has
   a lower or equal rate (classic bottleneck-fairness characterization).
"""

from repro.sharing.model import (
    Activity,
    ActivityCancelled,
    FairShareModel,
    Fanout,
    SharedResource,
    solve_max_min,
)

__all__ = [
    "Activity",
    "ActivityCancelled",
    "FairShareModel",
    "Fanout",
    "SharedResource",
    "solve_max_min",
]
