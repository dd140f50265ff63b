"""Float absorption at the completion wake: what time cannot resolve is done.

At ``now = 1e9`` the float spacing is ~1.2e-7 s, so an activity with
``remaining / rate = 1e-8`` gets the horizon ``now + 1e-8 == now``: the
wake fires at ``now`` with ``dt == 0``, nothing integrates, the re-solve
returns the same horizon, and the model used to re-arm that wake forever
(both engines).  Each variant runs in its own interpreter under a hard
timeout, so a regression fails this test instead of hanging the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

_SCRIPT = """
import json, sys
from repro.des import Environment
from repro.sharing import Activity, FairShareModel, SharedResource

reference = sys.argv[1] == "True"
variant = sys.argv[2]
env = Environment()
model = FairShareModel(env, reference=reference)
env.run(until=1e9)
before = env.processed_events
fast = [SharedResource(f"r{i}", 1e10) for i in range(16)]
if variant == "singleton":
    acts = [model.execute(Activity(100.0, {fast[0]: 1.0}))]
elif variant == "cohort":
    handle = model.execute_fanout(100.0, fast[:8])
elif variant == "route-cohort":
    handle = model.execute_fanout(100.0, fast, hops=2)
elif variant == "shared":
    acts = [model.execute(Activity(100.0, {fast[0]: 1.0})) for _ in range(3)]
else:  # one member past tolerance, one only absorbed, in one component
    acts = [
        model.execute(Activity(work, {fast[0]: 1.0, fast[1]: 1.0}))
        for work in (1e-9, 100.0)
    ]
env.run()
if "cohort" in variant:
    acts = handle.activities  # asked for afterwards: finished stand-ins
print(json.dumps({
    "finished_at": [a.finished_at for a in acts],
    "remaining": [a.remaining for a in acts],
    "now": env.now,
    "events": env.processed_events - before,
    "left": model.component_count,
}))
"""


@pytest.mark.parametrize("reference", [False, True], ids=["array", "object"])
@pytest.mark.parametrize(
    "variant, members",
    [("singleton", 1), ("cohort", 8), ("route-cohort", 8), ("shared", 3), ("mixed", 2)],
)
def test_absorbed_horizon_completes_instead_of_spinning(reference, variant, members):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(reference), variant],
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=60,  # the livelock never returns; a healthy run takes ~0.1 s
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["finished_at"] == [1e9] * members
    assert out["remaining"] == [0.0] * members
    assert out["now"] == 1e9 and out["left"] == 0
    # resolve + wake(s) + one completion per member (+ the all-of of a
    # fan-out), not an unbounded spin
    assert out["events"] <= members + 6
