"""The pluggable oracle stack: what "correct" means without a reference run.

A fuzzer needs a verdict for workloads nobody hand-computed.  Three oracle
families provide one:

* **differential** — the production engine is *specified* to be a pure
  optimisation of the reference engine (``Simulation(reference=True)``:
  every activity an object in a component, numpy max-min kernel):
  ``run_record()`` must serialise byte-identically on both.  The two
  runs differ at every fork the engine has, so a bug on either side of
  any one fork shows.
* **invariant** — the streaming :class:`~repro.tracing.InvariantChecker`
  audits conservation laws (node accounting, queue accounting, monotone
  time) during a production run.
* **metamorphic** — known-answer *transformations*: relabelling job ids,
  scaling every time-dimensioned quantity by a power of two, adding spare
  nodes no policy will ever allocate, re-typing rigid jobs as
  single-point malleables, and relaxing the power corridor under the
  strict-FCFS hybrid policy must each change results in a precisely
  predictable way (usually: not at all).

Each oracle takes a scenario dict (see :mod:`repro.fuzz.generate`) and
returns ``None`` (pass / not applicable) or an :class:`OracleFailure`.
Crashes inside an oracle's runs are findings, not errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Power-of-two factor used by the time-scaling oracle.  Must be a power
#: of two: multiplying IEEE doubles by 2**n is exact and commutes with
#: rounding, so a correctly-scaled simulation reproduces *bit-identical*
#: scaled times — any inexact factor would need sloppy tolerances.
SCALE_FACTOR = 4


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's verdict that a scenario misbehaves."""

    oracle: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.oracle}] {self.detail}"


def run_scenario_record(
    scenario: Dict[str, Any],
    *,
    reference: bool = False,
    check_invariants: bool = False,
    prefail: int = 0,
) -> Dict[str, Any]:
    """Run a scenario on the production or the reference engine; return
    its run_record.

    ``prefail`` marks the last N nodes failed before the run starts (the
    spare-nodes oracle's way of adding capacity that is provably never
    allocated without racing the t=0 scheduler invocation).
    """
    from repro import Simulation

    sim = Simulation.from_spec(scenario, reference=reference)
    if prefail:
        for node in sim.batch.platform.nodes[-prefail:]:
            node.fail()
    return sim.run(check_invariants=check_invariants).run_record()


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True)


def _first_diff(a: Any, b: Any, path: str = "") -> str:
    """Human-oriented pointer at the first divergence between two records."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: only on one side"
            if a[key] != b[key]:
                return _first_diff(a[key], b[key], f"{path}.{key}")
        return f"{path}: records compare equal item-wise"
    return f"{path}: {a!r} != {b!r}"


def _deepcopy(scenario: Dict[str, Any]) -> Dict[str, Any]:
    # Scenarios are JSON-shaped by construction; a JSON round-trip is a
    # deep copy that also catches accidental non-JSON values early.
    return json.loads(json.dumps(scenario))


def _algorithm_base(scenario: Dict[str, Any]) -> str:
    return str(scenario.get("algorithm", "easy")).partition(":")[0]


def _inline_jobs(scenario: Dict[str, Any]) -> List[Dict[str, Any]]:
    return scenario["workload"]["inline"]["jobs"]


# -- differential -------------------------------------------------------------


def differential_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """run_record must be byte-identical on the production and the
    reference engine."""
    production = run_scenario_record(scenario)
    reference = run_scenario_record(scenario, reference=True)
    if _canonical(production) != _canonical(reference):
        return OracleFailure(
            "differential",
            "run_record diverged between production and reference=True: "
            f"{_first_diff(production, reference)}",
        )
    return None


# -- invariant ----------------------------------------------------------------


def invariant_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """The streaming invariant checker must stay silent."""
    from repro.tracing import InvariantViolation

    try:
        run_scenario_record(scenario, check_invariants=True)
    except InvariantViolation as exc:
        return OracleFailure("invariant", str(exc))
    return None


# -- metamorphic: job-id relabelling ------------------------------------------


def permute_jids_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """Order-preserving job-id relabelling must not change anything.

    Job ids are names: schedulers may use them only for stable tie-breaks,
    which an order-preserving remap keeps intact.  Skipped for the random
    scheduler — its decision stream is seeded independently of ids but
    spending draws is part of its contract, not a correctness statement.
    """
    if _algorithm_base(scenario) == "random":
        return None
    relabelled = _deepcopy(scenario)
    for job in _inline_jobs(relabelled):
        job["id"] = job["id"] * 7 + 3
    base = run_scenario_record(scenario)
    perm = run_scenario_record(relabelled)
    if _canonical(base) != _canonical(perm):
        return OracleFailure(
            "permute-jids",
            f"relabelling job ids changed the run: {_first_diff(base, perm)}",
        )
    return None


# -- metamorphic: power-of-two time scaling -----------------------------------

_SCALED_SUMMARY_FIELDS = {
    "makespan",
    "mean_wait",
    "median_wait",
    "max_wait",
    "mean_turnaround",
    "p95_turnaround",
}

#: Bounded slowdown uses a fixed interactivity threshold (tau = 10s) that
#: deliberately does not scale with the workload.
_SCALE_IGNORED_FIELDS = {"mean_bounded_slowdown"}


def _scale_magnitude(value: Any, k: int) -> Any:
    if isinstance(value, str):
        return f"({value}) * {k}"
    return value * k


def _scale_task(task: Dict[str, Any], k: int) -> None:
    kind = task["type"]
    if kind in ("cpu", "gpu"):
        task["flops"] = _scale_magnitude(task["flops"], k)
    elif kind == "delay":
        task["seconds"] = _scale_magnitude(task["seconds"], k)
    elif kind == "evolving_request":
        pass  # node counts are not time-dimensioned
    else:  # comm / pfs_* / bb_*
        task["bytes"] = _scale_magnitude(task["bytes"], k)
        if "charge" in task:
            task["charge"] = _scale_magnitude(task["charge"], k)


def scale_scenario(scenario: Dict[str, Any], k: int = SCALE_FACTOR) -> Dict[str, Any]:
    """Scale every time-dimensioned quantity by ``k`` (capacities fixed).

    Work (flops, bytes) scales against unchanged node speeds and
    bandwidths, so every duration — and nothing else — multiplies by
    ``k``.  Counts, fractions, and iteration structure stay put.
    """
    scaled = _deepcopy(scenario)
    platform = scaled["platform"]
    if "latency" in platform.get("network", {}):
        platform["network"]["latency"] *= k
    for job in _inline_jobs(scaled):
        job["submit_time"] = job["submit_time"] * k
        if "walltime" in job:
            job["walltime"] = job["walltime"] * k
        if "checkpoint_bytes" in job:
            # Restart I/O is byte-dimensioned work against fixed bandwidth,
            # so it scales like every other transfer.
            job["checkpoint_bytes"] = job["checkpoint_bytes"] * k
        app = job.get("application", {})
        if "data_per_node" in app:
            app["data_per_node"] = _scale_magnitude(app["data_per_node"], k)
        for phase in app.get("phases", []):
            for task in phase["tasks"]:
                _scale_task(task, k)
    sim = scaled.get("sim", {})
    if "invocation_interval" in sim:
        sim["invocation_interval"] *= k
    for failure in sim.get("failures", {}).get("trace", []):
        failure["time"] *= k
        failure["downtime"] *= k
    return scaled


def scale_time_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """x4 all work: every time statistic must scale bit-exactly by 4."""
    if _algorithm_base(scenario) == "random":
        return None
    k = SCALE_FACTOR
    base = run_scenario_record(scenario)
    scaled = run_scenario_record(scale_scenario(scenario, k))
    expected = _deepcopy(base)
    for field in _SCALED_SUMMARY_FIELDS:
        if expected["summary"][field] is not None:
            expected["summary"][field] *= k
    if "energy" in expected:
        # Durations stretch by k at unchanged wattage, so every energy
        # integral multiplies by k bit-exactly; the observed power maximum
        # and the corridor are wattages and must not move.
        expected["energy"]["total_joules"] *= k
        expected["energy"]["node_joules"] = [
            joules * k for joules in expected["energy"]["node_joules"]
        ]
    for record in (expected, scaled):
        for field in _SCALE_IGNORED_FIELDS:
            record["summary"].pop(field, None)
    if _canonical(expected) != _canonical(scaled):
        return OracleFailure(
            "scale-time",
            f"x{k} workload did not scale times x{k}: "
            f"{_first_diff(expected, scaled)}",
        )
    return None


# -- metamorphic: spare nodes -------------------------------------------------

#: Policies whose decisions read the *total* machine size (not just the
#: free pool): extra nodes legitimately change their behaviour.
_SPARE_SKIP_ALGORITHMS = {"malleable", "random"}

#: Topologies whose builders constrain the node count to a shape product;
#: appending nodes would change the shape, not just add capacity.
_SPARE_TOPOLOGIES = {"star", "fat_tree"}


def spare_nodes_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """Capacity that is never schedulable must not change the schedule.

    Two extra nodes are appended and immediately failed (before t=0), so
    the free pool every policy sees is identical to the base run.  Only
    machine-size-normalised statistics (utilization) may change.
    """
    if _algorithm_base(scenario) in _SPARE_SKIP_ALGORITHMS:
        return None
    topology = scenario["platform"].get("network", {}).get("topology", "star")
    if topology not in _SPARE_TOPOLOGIES:
        return None
    spare = 2
    widened = _deepcopy(scenario)
    widened["platform"]["nodes"]["count"] += spare
    base = run_scenario_record(scenario)
    wide = run_scenario_record(widened, prefail=spare)
    for record in (base, wide):
        record["summary"].pop("mean_utilization", None)
    if "energy" in wide:
        # The spare nodes fail at t=0 before drawing anything, so their
        # energy entries must be exactly zero — anything else means a
        # failed node was billed — and the rest of the record (totals,
        # observed maximum) must match the base run byte for byte.
        extra = wide["energy"]["node_joules"][-spare:]
        if extra != [0.0] * spare:
            return OracleFailure(
                "spare-nodes",
                f"prefailed spare nodes accumulated energy: {extra}",
            )
        del wide["energy"]["node_joules"][-spare:]
    if _canonical(base) != _canonical(wide):
        return OracleFailure(
            "spare-nodes",
            f"{spare} never-allocated spare nodes changed the run: "
            f"{_first_diff(base, wide)}",
        )
    return None


# -- metamorphic: rigid jobs as single-point malleables -----------------------

#: Policies for which a malleable job with min == max == request is
#: semantically indistinguishable from the rigid original (verified
#: against each implementation: sizing uses ``num_nodes if rigid else``
#: bounds that all collapse to the same single point, and reconfiguration
#: targets clamp into [min, max] = {request} so no resize is ever legal).
#: priority-preempt is excluded (it may pick malleable victims to shrink),
#: as is the random scheduler (type changes its draw sequence).
_RIGID_AS_MALLEABLE_ALGORITHMS = {
    "fcfs",
    "easy",
    "sjf",
    "fairshare",
    "conservative",
    "moldable",
    "adaptive-moldable",
    "malleable",
}


def rigid_as_malleable_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """Rigid == malleable-with-one-point-bounds, job for job.

    Compares summary statistics only: malleable jobs hit extra scheduler
    invocations at scheduling points, so raw event counts legitimately
    differ while every start/end time must not.
    """
    if _algorithm_base(scenario) not in _RIGID_AS_MALLEABLE_ALGORITHMS:
        return None
    if not any(job["type"] == "rigid" for job in _inline_jobs(scenario)):
        return None
    retyped = _deepcopy(scenario)
    for job in _inline_jobs(retyped):
        if job["type"] == "rigid":
            job["type"] = "malleable"
            job["min_nodes"] = job["num_nodes"]
            job["max_nodes"] = job["num_nodes"]
    base = run_scenario_record(scenario)["summary"]
    alt = run_scenario_record(retyped)["summary"]
    if _canonical(base) != _canonical(alt):
        return OracleFailure(
            "rigid-as-malleable",
            "re-typing rigid jobs as single-point malleables changed "
            f"summary statistics: {_first_diff(base, alt)}",
        )
    return None


# -- metamorphic: power-corridor relaxation -----------------------------------

#: Task types whose durations are independent of co-running jobs.  Shared
#: PFS / link / burst-buffer contention couples job runtimes, and Graham-
#: style anomalies then allow a *relaxed* constraint to lengthen the
#: schedule without any bug being present.
_CONTENTION_FREE_TASKS = {"cpu", "gpu", "delay"}


def corridor_relax_oracle(scenario: Dict[str, Any]) -> Optional[OracleFailure]:
    """Widening the power corridor must never increase the makespan.

    Monotonicity only holds for a policy that is anomaly-free by
    construction, so the oracle is gated on documented skip rules
    (``docs/HYBRID.md``):

    * ``hybrid-corridor`` only — its batch pass is strict FCFS with no
      backfilling, which is what makes extra headroom monotone; every
      other policy is corridor-oblivious anyway;
    * a corridor must be declared, or there is nothing to relax;
    * ``no-ondemand`` — on-demand admissions preempt batch jobs, and the
      preemption points (hence checkpoint/restart cost) legitimately move
      when the corridor does;
    * contention-free tasks only (cpu/gpu/delay) and no evolving jobs or
      tasks — runtimes must not depend on what else is running;
    * no failure injection — a repair racing a corridor-blocked head can
      reorder starts.
    """
    if _algorithm_base(scenario) != "hybrid-corridor":
        return None
    power = scenario["platform"].get("power") or {}
    corridor = power.get("corridor_watts")
    if corridor is None:
        return None
    jobs = _inline_jobs(scenario)
    if any(job.get("class") == "on-demand" for job in jobs):
        return None  # "no-ondemand"
    if any(job["type"] == "evolving" for job in jobs):
        return None
    for job in jobs:
        for phase in job["application"].get("phases", []):
            for task in phase["tasks"]:
                if task["type"] not in _CONTENTION_FREE_TASKS:
                    return None
    if scenario.get("sim", {}).get("failures"):
        return None
    relaxed = _deepcopy(scenario)
    relaxed["platform"]["power"]["corridor_watts"] = corridor * 2
    base = run_scenario_record(scenario)["summary"]["makespan"]
    wide = run_scenario_record(relaxed)["summary"]["makespan"]
    if wide > base * (1 + 1e-9):
        return OracleFailure(
            "corridor-relax",
            f"doubling the corridor increased makespan {base:g} -> {wide:g}",
        )
    return None


# -- registry -----------------------------------------------------------------

#: Name -> oracle, in the order :func:`check_scenario` applies them.
ORACLES: Dict[str, Callable[[Dict[str, Any]], Optional[OracleFailure]]] = {
    "differential": differential_oracle,
    "invariant": invariant_oracle,
    "permute-jids": permute_jids_oracle,
    "scale-time": scale_time_oracle,
    "spare-nodes": spare_nodes_oracle,
    "rigid-as-malleable": rigid_as_malleable_oracle,
    "corridor-relax": corridor_relax_oracle,
}


def check_scenario(
    scenario: Dict[str, Any],
    oracles: Optional[Iterable[str]] = None,
) -> List[OracleFailure]:
    """Run the oracle stack; return all failures (empty list = clean).

    A scenario that crashes outright under the reference engine mode
    short-circuits to a single ``crash`` failure — every oracle would
    just re-report it.  Oracles that crash internally (only *their*
    transformed run dies, say) report it as their own failure.
    """
    try:
        run_scenario_record(scenario)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [OracleFailure("crash", f"{type(exc).__name__}: {exc}")]
    names = list(ORACLES) if oracles is None else list(oracles)
    failures: List[OracleFailure] = []
    for name in names:
        try:
            failure = ORACLES[name](scenario)
        except Exception as exc:  # noqa: BLE001
            failure = OracleFailure(name, f"{type(exc).__name__}: {exc}")
        if failure is not None:
            failures.append(failure)
    return failures
