"""Hot-path profile companion to benchmark E5.

Runs :func:`repro.profiling.profile_run` on the E5 reference scenario and
writes ``PROFILE_hotpaths.json`` next to ``BENCH_E5.json`` (see
``common.bench_results_dir``), so every benchmark run records *where* the
wall-clock time went — solver, scheduler, kernel — not just
how much there was.  CI's profile-smoke job runs this on a small scenario
and archives the JSON.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpaths.py [--jobs N]
        [--nodes N] [--algorithm easy] [--seed 3] [--cprofile] [--top 25]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.profiling import format_profile_report, profile_run

from benchmarks.common import bench_results_dir


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=200)
    parser.add_argument("--nodes", type=int, default=128)
    parser.add_argument("--algorithm", default="easy")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--cprofile", action="store_true")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--tracemalloc", action="store_true")
    args = parser.parse_args(argv)

    payload = profile_run(
        num_jobs=args.jobs,
        num_nodes=args.nodes,
        algorithm=args.algorithm,
        seed=args.seed,
        cprofile=args.cprofile,
        top=args.top,
        trace_malloc=args.tracemalloc,
    )
    print(format_profile_report(payload))
    path = bench_results_dir() / "PROFILE_hotpaths.json"
    path.write_text(json.dumps(payload, indent=2))
    print(f"profile written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
