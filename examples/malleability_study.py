#!/usr/bin/env python
"""The real-workload malleability study, end to end.

Reproduces the methodology of the malleable-workload evaluation on a
Parallel Workloads Archive trace: the bundled ``data/study_trace.swf``
fixture is converted into rigid/moldable/malleable job mixes
(``type_probabilities`` sweeping 100/0/0 → 0/0/100, Amdahl-shaped
compute drawn from the ``parallel_fractions`` grid), replayed under the
three ported scheduling strategies, and folded into one per-mix /
per-strategy comparison table.

This script drives the committed campaign file
``examples/malleability_study.json`` through :mod:`repro.campaign` —
the same sweep runs on any executor backend::

    python examples/malleability_study.py
    python examples/malleability_study.py --executor process-pool --workers 8
    python examples/malleability_study.py --max-jobs 300   # quick pass

Equivalent CLI pipeline (see docs/STUDY.md for the full walkthrough)::

    elastisim campaign run --spec examples/malleability_study.json \
        --output-dir out
    elastisim campaign report out/scenarios.jsonl \
        --group-by workload,algorithm --output-dir out

Substitute a real archive trace via ``--trace`` for published-quality
numbers; the fixture is a synthetic stand-in with archive-like shape
(see ``data/make_study_trace.py``).
"""

import argparse
from pathlib import Path

from repro.campaign import (
    CampaignRunner,
    CampaignStudyReport,
    campaign_name,
    expand_campaign,
    load_campaign_spec,
)
from repro.campaign.spec import _pin_workload_file

SPEC = Path(__file__).resolve().parent / "malleability_study.json"


def load_scenarios(spec_path: Path, trace: str, max_jobs: int, seeds: str):
    spec = load_campaign_spec(spec_path)
    for workload in spec["workloads"]:
        block = workload["swf"]
        if trace:
            block["file"] = trace
        if max_jobs:
            block["max_jobs"] = max_jobs
    if seeds:
        spec["seeds"] = [int(s) for s in seeds.split(",")]
    scenarios = expand_campaign(spec)
    for scenario in scenarios:
        _pin_workload_file(scenario, spec_path.parent)
    return campaign_name(spec), scenarios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--spec", type=Path, default=SPEC)
    parser.add_argument("--trace", default="", help="replace the bundled fixture trace")
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="truncate the trace (0 = replay everything)")
    parser.add_argument("--seeds", default="", help="override seeds, e.g. 0,1,2")
    parser.add_argument("--executor", default=None,
                        help="campaign executor backend (default: the runner's "
                             "choice — in-process for one worker)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="write scenarios.jsonl + report.json/report.md here")
    args = parser.parse_args()

    name, scenarios = load_scenarios(args.spec, args.trace, args.max_jobs, args.seeds)
    print(f"{name}: {len(scenarios)} scenarios ({args.workers} workers)")

    runner = CampaignRunner(
        scenarios, name=name, workers=args.workers, executor=args.executor
    )
    campaign = runner.run()
    print(f"ran {campaign.executed} scenarios in {campaign.wall_s:.1f}s on the "
          f"{campaign.executor} executor ({len(campaign.failed)} failed)")

    report = CampaignStudyReport(group_by=("workload", "algorithm"))
    report.fold_records(campaign.records)
    print()
    print(report.to_markdown(title=f"Malleability study: {name}"))

    if args.output_dir is not None:
        campaign.write(args.output_dir)
        paths = report.write(args.output_dir,
                             title=f"Malleability study: {name}")
        print(f"artifacts in {args.output_dir} "
              f"(report: {paths['json'].name}, {paths['markdown'].name})")


if __name__ == "__main__":
    main()
