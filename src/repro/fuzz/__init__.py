"""Scenario fuzzing: generative correctness testing for the simulator.

The paper's central claim is that the simulator handles rigid, moldable,
evolving, and malleable jobs *correctly under arbitrary scheduler
decisions* — and the production engine is a performance-motivated
rewrite of a slow reference engine (cohort rows vs. one object per
activity, the scalar max-min loop vs. the numpy kernel) whose equivalence
hand-written tests only spot-check.
This package turns those oracles into a generative harness:

* :func:`generate_scenario` — a random-but-valid scenario (platform,
  workload with random phase/task structure and expression-driven
  magnitudes, scheduler, failure trace) from a single seed, shaped as a
  ready-to-run campaign/:meth:`~repro.batch.Simulation.from_spec` dict;
* :mod:`repro.fuzz.oracles` — the pluggable oracle stack: *differential*
  (byte-identical ``run_record`` on the production and the reference engine),
  *invariant* (``check_invariants=True`` streaming audit), and
  *metamorphic* (job-id relabelling, power-of-two time/work scaling,
  never-allocated spare nodes, rigid jobs as single-point malleables);
* :func:`shrink_scenario` — greedy reduction of a failing scenario (drop
  jobs, drop phases, shrink node counts, simplify expressions) to a
  minimal reproducer, serialisable as a campaign spec plus a pytest
  regression snippet (:func:`write_reproducer`);
* :func:`fuzz_run` — the campaign driver behind ``elastisim fuzz``.

See docs/TESTING.md for the workflow (running, shrinking, promoting
reproducers into ``tests/fuzz/corpus/``).
"""

from repro.fuzz.generate import FuzzBudget, generate_scenario
from repro.fuzz.oracles import (
    ORACLES,
    OracleFailure,
    check_scenario,
    run_scenario_record,
)
from repro.fuzz.runner import (
    FuzzFailure,
    bisect_candidates,
    FuzzReport,
    fuzz_run,
    replay_scenario,
    shrink_failure,
    write_reproducer,
)
from repro.fuzz.shrink import shrink_scenario

__all__ = [
    "FuzzBudget",
    "FuzzFailure",
    "FuzzReport",
    "ORACLES",
    "OracleFailure",
    "bisect_candidates",
    "check_scenario",
    "fuzz_run",
    "generate_scenario",
    "replay_scenario",
    "run_scenario_record",
    "shrink_failure",
    "shrink_scenario",
    "write_reproducer",
]
