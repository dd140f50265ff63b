"""The reference side of the max-min solve: the numpy kernel.

Imported by ``FairShareModel(env, reference=True)`` and by nothing else in
the package, so no production run loads this module or numpy
(``tests/test_import_budget.py``).  A reference model holds no rows —
every activity is an object in a component — and solves every component
of two or more with :func:`_solve_vector`, a second implementation of
progressive filling that is *bit-identical* to the production scalar loop
(``tests/sharing/test_vectorized_solver.py``); whole runs on the two
engines are compared by the fuzzer's differential oracle and
``tests/batch/test_mode_equivalence.py``.  The scalar loop is the faster
of the two on every shipped topology (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from math import inf
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.sharing.model import Activity, SharedResource
from repro.sharing.model import solve_max_min as solve_production


def solve_max_min(activities: Iterable[Activity]) -> str:
    """:func:`repro.sharing.model.solve_max_min` with the numpy kernel
    where that runs the scalar loop; returns ``"vector"`` then."""
    acts = list(activities)
    if len(acts) < 2:
        return solve_production(acts)
    acts.sort(key=lambda a: a._seq)
    _solve_vector(acts)
    return "vector"


def _solve_vector(acts: List[Activity]) -> None:
    """Numpy progressive filling, bit-identical to :func:`_solve_scalar`.

    Index ``i`` stands in for the activity at position ``i`` of the
    creation-ordered ``acts`` list, and resources are numbered in the same
    first-encounter order the scalar loop builds its dicts in.  Every float
    operation is a float64 elementwise op matching a scalar Python-float op
    one-to-one (IEEE-identical), ``np.argmin`` returns the first occurrence
    of the minimum — the scalar loop's strict-``<`` first-win tie-break —
    and freezes are processed in the same insertion order.  The scalar
    demand *accumulation* (first-encounter order) and per-freeze demand
    decrements stay plain Python floats so rounding matches exactly.
    """
    n = len(acts)
    rates = np.zeros(n)
    weights = np.empty(n)
    bounds = np.empty(n)
    unfrozen = np.zeros(n, dtype=bool)
    n_unfrozen = 0
    for i, act in enumerate(acts):
        act.rate = 0.0
        weights[i] = act.weight
        bounds[i] = act.bound
        if act.usages:
            unfrozen[i] = True
            n_unfrozen += 1
        else:
            rates[i] = act.bound  # unconstrained: progress at the bound

    if n_unfrozen:
        # Resource tables, in the scalar loop's first-encounter order.
        res_index: Dict[SharedResource, int] = {}
        caps: List[float] = []
        demand_py: List[float] = []
        users: List[Dict[int, None]] = []
        act_edges: List[Optional[List[tuple]]] = [None] * n
        for i, act in enumerate(acts):
            if not unfrozen[i]:
                continue
            w = act.weight
            edges = []
            for res, factor in act.usages.items():
                j = res_index.get(res)
                if j is None:
                    j = len(caps)
                    res_index[res] = j
                    caps.append(res.capacity)
                    demand_py.append(0.0)
                    users.append({})
                demand_py[j] += factor * w
                users[j][i] = None
                edges.append((j, factor))
            act_edges[i] = edges
        m = len(caps)
        caps_arr = np.array(caps)
        residual = caps_arr.copy()
        demand = np.array(demand_py)
        user_count = np.fromiter(
            (len(u) for u in users), dtype=np.int64, count=m
        )
        sat_tol = np.maximum(1e-12, 1e-12 * caps_arr)
        bounded: Dict[int, None] = {
            i: None for i in range(n) if unfrozen[i] and acts[i].bound < inf
        }
        ratios = np.empty(m)

        while n_unfrozen:
            theta = inf
            limiting_res = -1
            limiting_act = -1
            active = (user_count > 0) & (demand > 1e-15)
            if active.any():
                np.copyto(ratios, inf)
                np.divide(residual, demand, out=ratios, where=active)
                j = int(np.argmin(ratios))
                t = float(ratios[j])
                if t < inf:
                    theta = t
                    limiting_res = j
            if bounded:
                b_idx = np.fromiter(bounded, dtype=np.int64, count=len(bounded))
                b_ratios = (bounds[b_idx] - rates[b_idx]) / weights[b_idx]
                k = int(np.argmin(b_ratios))
                t = float(b_ratios[k])
                if t < theta:
                    theta = t
                    limiting_res = -1
                    limiting_act = int(b_idx[k])

            if theta == inf:
                rates[unfrozen] = inf
                break

            if theta > 0:
                rates[unfrozen] += theta * weights[unfrozen]
                residual -= theta * demand

            frozen: Dict[int, None] = {}
            sat = (user_count > 0) & (residual <= sat_tol)
            for j in np.nonzero(sat)[0]:
                residual[j] = 0.0
                frozen.update(users[j])
            for i in bounded:
                if rates[i] >= bounds[i] * (1 - 1e-12):
                    rates[i] = bounds[i]
                    frozen[i] = None
            if limiting_res >= 0 and user_count[limiting_res] > 0:
                frozen.update(users[limiting_res])
                residual[limiting_res] = 0.0
            if limiting_act >= 0:
                rates[limiting_act] = bounds[limiting_act]
                frozen[limiting_act] = None

            if not frozen:  # pragma: no cover - defensive; cannot happen now
                frozen = {i: None for i in range(n) if unfrozen[i]}

            for i in frozen:
                if not unfrozen[i]:
                    continue
                w = acts[i].weight
                for j, factor in act_edges[i]:
                    uj = users[j]
                    del uj[i]
                    user_count[j] -= 1
                    demand[j] = demand[j] - factor * w if uj else 0.0
                unfrozen[i] = False
                n_unfrozen -= 1
                bounded.pop(i, None)

    for i, act in enumerate(acts):
        act.rate = float(rates[i])
