"""Campaign warm-start: grid scenarios share one snapshotted base run.

``CampaignRunner(..., warm_start=True)`` hands the in-process executor a
:class:`repro.replay.WhatIfSession`; results must be fingerprint-
identical to a plain in-process campaign, with warm scenarios flagged in
their records.
"""

import pytest

from repro.campaign import (
    CampaignError,
    CampaignRunner,
    ScenarioSpec,
    result_fingerprint,
)

PLATFORM = {
    "name": "warm-test",
    "nodes": {"count": 8, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10, "pfs_bandwidth": 1e11},
    "pfs": {"read_bw": 1e11, "write_bw": 8e10},
}


def _jobs(last_nodes):
    jobs = [
        {
            "id": j,
            "submit_time": 25.0 * (j - 1),
            "num_nodes": 2,
            "application": {
                "name": "app",
                "phases": [
                    {"tasks": [{"type": "cpu", "flops": 4e10}], "iterations": 3}
                ],
            },
        }
        for j in range(1, 7)
    ]
    jobs[-1]["num_nodes"] = last_nodes
    return jobs


def _grid():
    return [
        ScenarioSpec(
            name=f"variant-{nodes}",
            platform=PLATFORM,
            workload={"name": f"jobs-{nodes}", "inline": {"jobs": _jobs(nodes)}},
            algorithm="easy",
            seed=3,
        )
        for nodes in (2, 3, 4, 5)
    ]


class TestWarmStartCampaign:
    def test_results_identical_to_serial(self):
        cold = CampaignRunner(_grid()).run()
        warm = CampaignRunner(_grid(), warm_start=True).run()
        assert [result_fingerprint(r) for r in cold.records] == [
            result_fingerprint(r) for r in warm.records
        ]
        assert warm.executor == "in-process+warm-start"
        assert len(warm.ok) == 4

    def test_warm_flags_and_savings_recorded(self):
        report = CampaignRunner(_grid(), warm_start=True).run()
        flags = [r.get("warm_start", False) for r in report.records]
        assert flags[0] is False  # the base run records snapshots
        assert any(flags[1:]), "no grid member warm-started"
        saved = [r.get("events_saved", 0) for r in report.records if r.get("warm_start")]
        assert all(s > 0 for s in saved)

    def test_warm_start_excludes_conflicting_options(self):
        with pytest.raises(CampaignError):
            CampaignRunner(_grid(), warm_start=True, executor="process-pool")
        with pytest.raises(CampaignError):
            CampaignRunner(_grid(), warm_start=True, trace_dir="/tmp/traces")
        with pytest.raises(CampaignError):
            CampaignRunner(_grid(), warm_start=True, check_invariants=True)

    def test_warm_cache_salt_differs(self):
        plain = CampaignRunner(_grid())
        warm = CampaignRunner(_grid(), warm_start=True)
        assert plain.salt != warm.salt
