"""Tests for the JSON workload loader and the SWF parser."""

import json
from math import inf

import pytest

from repro.job import JobType
from repro.workload import (
    WorkloadError,
    jobs_from_swf,
    load_workload,
    parse_swf,
    workload_from_dict,
)
from repro.workload.swf import SwfError


APP = {
    "phases": [
        {"tasks": [{"type": "cpu", "flops": "1e12 / num_nodes"}], "iterations": 2}
    ]
}

WORKLOAD = {
    "applications": {"solver": APP},
    "jobs": [
        {
            "id": 1,
            "type": "malleable",
            "submit_time": 0.0,
            "num_nodes": 8,
            "min_nodes": 2,
            "max_nodes": 16,
            "walltime": 3600,
            "application": "solver",
            "arguments": {"num_steps": 100},
        },
        {"id": 2, "submit_time": 5.0, "num_nodes": 4, "application": APP},
    ],
}


class TestJsonLoader:
    def test_valid_workload(self):
        jobs = workload_from_dict(WORKLOAD)
        assert len(jobs) == 2
        assert jobs[0].type is JobType.MALLEABLE
        assert jobs[0].min_nodes == 2
        assert jobs[0].arguments == {"num_steps": 100}
        assert jobs[1].type is JobType.RIGID
        assert jobs[1].walltime == inf

    def test_shared_application_is_same_object(self):
        spec = {
            "applications": {"a": APP},
            "jobs": [
                {"id": 1, "application": "a"},
                {"id": 2, "application": "a"},
            ],
        }
        jobs = workload_from_dict(spec)
        assert jobs[0].application is jobs[1].application

    def test_unknown_application_reference(self):
        spec = {"jobs": [{"id": 1, "application": "ghost"}]}
        with pytest.raises(WorkloadError, match=r"^jobs\[0\]\.application must name one of"):
            workload_from_dict(spec)

    def test_missing_application(self):
        with pytest.raises(WorkloadError, match=r"^jobs\[0\]\.application is required"):
            workload_from_dict({"jobs": [{"id": 1}]})

    def test_unknown_type(self):
        spec = {"jobs": [{"id": 1, "type": "elastic", "application": APP}]}
        with pytest.raises(WorkloadError, match=r"^jobs\[0\]\.type must be one of \[.*\], got \'elastic\'"):
            workload_from_dict(spec)

    def test_duplicate_ids(self):
        spec = {
            "jobs": [
                {"id": 1, "application": APP},
                {"id": 1, "application": APP},
            ]
        }
        with pytest.raises(WorkloadError, match="duplicate"):
            workload_from_dict(spec)

    def test_empty_jobs(self):
        with pytest.raises(WorkloadError, match="non-empty"):
            workload_from_dict({"jobs": []})

    def test_invalid_job_params_wrapped(self):
        spec = {"jobs": [{"id": 1, "application": APP, "num_nodes": -1}]}
        with pytest.raises(WorkloadError, match=r"^jobs\[0\]\.num_nodes must be an integer >= 1, got -1"):
            workload_from_dict(spec)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(WORKLOAD))
        jobs = load_workload(path)
        assert len(jobs) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match=r"nope\.json: cannot read the file"):
            load_workload(tmp_path / "nope.json")

    def test_swf_block_workload_file(self, tmp_path):
        # `elastisim run --workload` must accept the same `{"swf": ...}`
        # block campaign specs do, with the trace path resolved relative
        # to the workload file itself.
        from repro.workload.swf import SwfRecord, render_swf

        records = [
            SwfRecord(
                job_id=i + 1,
                submit_time=10.0 * i,
                run_time=100.0,
                allocated_procs=4,
                requested_procs=4,
                requested_time=200.0,
                user_id=1,
                status=1,
            )
            for i in range(5)
        ]
        (tmp_path / "trace.swf").write_text(render_swf(records))
        wl = tmp_path / "wl.json"
        wl.write_text(
            json.dumps(
                {
                    "swf": {
                        "file": "trace.swf",
                        "type_mix": "0,0,100",
                        "node_flops": 1e9,
                    }
                }
            )
        )
        jobs = load_workload(wl)
        assert len(jobs) == 5
        assert all(j.type is JobType.MALLEABLE for j in jobs)

    def test_swf_block_rejects_sibling_keys(self):
        with pytest.raises(WorkloadError, match="cannot be combined"):
            workload_from_dict({"swf": {}, "applications": {}})

    def test_swf_block_errors_wrapped(self):
        with pytest.raises(WorkloadError, match=r"^swf\.file is required"):
            workload_from_dict({"swf": {"type_mix": "100,0,0"}})


SWF_TEXT = """\
; Sample SWF trace
; Computer: Test cluster
1 0 0 120 16 -1 -1 16 300 -1 1 1 1 1 1 -1 -1 -1
2 60 5 600 32 -1 -1 32 900 -1 1 2 1 1 1 -1 -1 -1
3 120 0 -1 8 -1 -1 8 100 -1 0 3 1 1 1 -1 -1 -1
"""


class TestSwf:
    def test_parse_skips_comments_and_reads_fields(self):
        records = parse_swf(SWF_TEXT)
        assert len(records) == 3
        assert records[0].job_id == 1
        assert records[0].run_time == 120
        assert records[1].requested_procs == 32
        assert records[1].submit_time == 60

    def test_malformed_line_raises_with_lineno(self):
        with pytest.raises(SwfError, match="line 1"):
            parse_swf("1 2 3")

    def test_non_numeric_field(self):
        with pytest.raises(SwfError, match="line 1"):
            parse_swf("a b c d e f g h i j k")

    def test_jobs_from_swf_translates_runtime_to_flops(self):
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12)
        # Job 3 has run_time -1 → skipped.
        assert len(jobs) == 2
        job = jobs[0]
        assert job.num_nodes == 16
        cpu = job.application.phases[0].tasks[0]
        # 120 s x 16 nodes x 1e12 flops/s.
        assert cpu.flops.evaluate({}) == pytest.approx(120 * 16 * 1e12)

    def test_walltime_from_requested_time(self):
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12, walltime_slack=2.0)
        assert jobs[0].walltime == pytest.approx(600.0)  # 2 x 300

    def test_procs_per_node_division(self):
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12, procs_per_node=8)
        assert jobs[0].num_nodes == 2  # ceil(16/8)

    def test_max_nodes_clamp(self):
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12, max_nodes=8)
        assert all(j.num_nodes <= 8 for j in jobs)

    def test_malleable_conversion(self):
        jobs = jobs_from_swf(
            SWF_TEXT, node_flops=1e12, job_type=JobType.MALLEABLE
        )
        assert all(j.type is JobType.MALLEABLE for j in jobs)
        assert jobs[0].min_nodes == 8
        assert jobs[0].max_nodes == 32

    def test_swf_roundtrip_simulates(self):
        from repro import Simulation, platform_from_dict

        platform = platform_from_dict(
            {
                "nodes": {"count": 32, "flops": 1e12},
                "network": {"topology": "star", "bandwidth": 1e10},
            }
        )
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12)
        Simulation(platform, jobs, algorithm="easy").run()
        # Runtimes should match the trace exactly (compute-only model).
        assert jobs[0].runtime == pytest.approx(120.0)
        assert jobs[1].runtime == pytest.approx(600.0)

    def test_empty_trace_raises(self):
        with pytest.raises(SwfError, match="no simulable jobs"):
            jobs_from_swf("; nothing here\n", node_flops=1e12)

    def test_bad_node_flops(self):
        with pytest.raises(SwfError):
            jobs_from_swf(SWF_TEXT, node_flops=0)

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(SWF_TEXT)
        assert len(parse_swf(path)) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(SwfError, match=r"ghost\.swf: cannot read SWF file"):
            parse_swf(tmp_path / "ghost.swf")

    def test_path_like_string_without_swf_suffix(self):
        # Regression: "trace.txt" / "trace.swf.gz" used to be parsed as
        # (empty) inline content because only the ".swf" suffix was treated
        # as a path.  A whitespace-free string is path-like: report the
        # missing file instead of silently returning zero records.
        for name in ("trace.txt", "runs/trace.swf.gz", "ghost"):
            with pytest.raises(SwfError, match="cannot read SWF file"):
                parse_swf(name)

    def test_existing_file_any_suffix_is_read(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(SWF_TEXT)
        assert len(parse_swf(str(path))) == 3

    def test_inline_single_line_still_content(self):
        # One whitespace-separated SWF line (no trailing newline) must
        # stay inline content, not be mistaken for a file name.
        line = "1 0 0 120 16 -1 -1 16 300 -1 1 1 1 1 1 -1 -1 -1"
        records = parse_swf(line)
        assert len(records) == 1
        assert records[0].job_id == 1


class TestSwfIterations:
    def test_iterations_split_preserves_total_work(self):
        jobs_1 = jobs_from_swf(SWF_TEXT, node_flops=1e12, iterations=1)
        jobs_20 = jobs_from_swf(SWF_TEXT, node_flops=1e12, iterations=20)
        for a, b in zip(jobs_1, jobs_20):
            phase_a, phase_b = a.application.phases[0], b.application.phases[0]
            total_a = phase_a.tasks[0].flops.evaluate({}) * phase_a.num_iterations({})
            total_b = phase_b.tasks[0].flops.evaluate({}) * phase_b.num_iterations({})
            assert total_a == pytest.approx(total_b)

    def test_iterations_create_scheduling_points(self):
        from repro import Simulation, platform_from_dict

        platform = platform_from_dict(
            {
                "nodes": {"count": 32, "flops": 1e12},
                "network": {"topology": "star", "bandwidth": 1e10},
            }
        )
        jobs = jobs_from_swf(SWF_TEXT, node_flops=1e12, iterations=5)
        Simulation(platform, jobs, algorithm="easy").run()
        assert all(j.scheduling_points_seen == 5 for j in jobs)
        # Runtime unchanged by the split (pure compute).
        assert jobs[0].runtime == pytest.approx(120.0)

    def test_invalid_iterations(self):
        with pytest.raises(SwfError):
            jobs_from_swf(SWF_TEXT, node_flops=1e12, iterations=0)

    def test_bundled_sample_trace_loads(self):
        from pathlib import Path

        sample = Path(__file__).resolve().parents[2] / "data" / "sample.swf"
        jobs = jobs_from_swf(sample, node_flops=1e12, max_nodes=64)
        assert len(jobs) == 60
        assert len({j.user for j in jobs}) > 1
