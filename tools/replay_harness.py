"""Byte-identity harness for snapshot/resume (developer tool).

Cold-runs scenarios with periodic snapshots, resumes every snapshot —
after a save → load round-trip through a snapshot file — and asserts the
resumed ``run_record`` and ``processed_events`` are byte-identical to the
cold run.  Also cross-checks that taking snapshots does not perturb the
run itself.

Usage: PYTHONPATH=src python tools/replay_harness.py [seeds...]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.batch import Simulation
from repro.fuzz.generate import generate_scenario
from repro.replay import Snapshot


def record_of(monitor) -> str:
    return json.dumps(monitor.run_record(), sort_keys=True)


def check_scenario(spec, snapshot_every=40, roundtrip=True) -> list:
    """Returns a list of failure strings (empty = byte-identical)."""
    fails = []

    plain = Simulation.from_spec(spec)
    plain_rec = record_of(plain.run())
    plain_pe = plain.env.processed_events

    sim = Simulation.from_spec(spec)
    cold_rec = record_of(sim.run(snapshot_every=snapshot_every))
    cold_pe = sim.env.processed_events
    if cold_rec != plain_rec or cold_pe != plain_pe:
        fails.append(
            f"snapshotting perturbed the run: events {plain_pe} -> {cold_pe}"
        )

    with tempfile.TemporaryDirectory() as scratch:
        for i, snap in enumerate(sim.snapshots):
            if roundtrip:
                path = Path(scratch) / f"{i:04d}.json"
                snap.save(path)
                snap = Snapshot.load(path)
            try:
                rsim = Simulation.resume(snap)
                rrec = record_of(rsim.run())
            except Exception as exc:  # noqa: BLE001 - harness reports all failures
                fails.append(
                    f"snap[{i}] t={snap.time:g} ev={snap.processed_events}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if rrec != cold_rec:
                fails.append(
                    f"snap[{i}] t={snap.time:g} ev={snap.processed_events}: "
                    "record diverged"
                )
            elif rsim.env.processed_events != cold_pe:
                fails.append(
                    f"snap[{i}] t={snap.time:g} ev={snap.processed_events}: "
                    f"processed {rsim.env.processed_events} != {cold_pe}"
                )
    return fails


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(20))
    bad = 0
    for seed in seeds:
        spec = generate_scenario(seed)
        try:
            fails = check_scenario(spec)
        except Exception as exc:  # noqa: BLE001
            print(f"seed {seed}: HARNESS ERROR {type(exc).__name__}: {exc}")
            bad += 1
            continue
        if fails:
            bad += 1
            print(f"seed {seed} ({spec['algorithm']}): {len(fails)} failures")
            for f in fails[:4]:
                print(f"  {f}")
        else:
            print(f"seed {seed} ({spec['algorithm']}): ok")
    print(f"{len(seeds) - bad}/{len(seeds)} scenarios byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
