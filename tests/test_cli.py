"""Tests for the command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_ALGORITHM,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)


PLATFORM = {
    "name": "cli-test",
    "nodes": {"count": 16, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10, "pfs_bandwidth": 1e11},
    "pfs": {"read_bw": 1e11, "write_bw": 1e11},
}


@pytest.fixture()
def platform_file(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(PLATFORM))
    return path


@pytest.fixture()
def workload_file(tmp_path):
    # Generate through the CLI itself so the round-trip is covered.
    path = tmp_path / "workload.json"
    code = main(
        [
            "generate",
            "--output",
            str(path),
            "--num-jobs",
            "5",
            "--seed",
            "1",
            "--max-request",
            "16",
            "--malleable-fraction",
            "0.4",
        ]
    )
    assert code == 0
    return path


def _never_loaded(_path):
    raise AssertionError("platform loaded before the output path was checked")


def test_version_flag_prints_the_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"elastisim {repro.__version__}"


class TestGenerate:
    def test_generate_writes_valid_workload(self, workload_file):
        spec = json.loads(workload_file.read_text())
        assert len(spec["jobs"]) == 5
        types = {j["type"] for j in spec["jobs"]}
        assert "malleable" in types

    def test_generated_workload_loads(self, workload_file):
        from repro.workload import load_workload

        jobs = load_workload(workload_file)
        assert len(jobs) == 5


class TestValidate:
    def test_validate_platform_and_workload(self, platform_file, workload_file, capsys):
        assert main(
            ["validate", "--platform", str(platform_file), "--workload", str(workload_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "platform OK" in out
        assert "workload OK" in out

    def test_validate_nothing_is_error(self, capsys):
        assert main(["validate"]) == EXIT_USAGE

    def test_validate_bad_platform(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", "--platform", str(bad)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_validate_unparseable_platform(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--platform", str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_validate_bad_workload(self, tmp_path, capsys):
        bad = tmp_path / "wl.json"
        bad.write_text(json.dumps({"jobs": [{"this": "is not a job"}]}))
        assert main(["validate", "--workload", str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestRun:
    def test_run_prints_summary(self, platform_file, workload_file, capsys):
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--algorithm",
                "malleable",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "completed_jobs" in out

    def test_run_writes_outputs(self, platform_file, workload_file, tmp_path, capsys):
        outdir = tmp_path / "results"
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--output-dir",
                str(outdir),
            ]
        )
        assert code == 0
        assert (outdir / "jobs.csv").exists()
        assert (outdir / "summary.json").exists()
        assert (outdir / "utilization.json").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["completed_jobs"] + summary["killed_jobs"] == 5

    def test_run_unknown_algorithm_fails_cleanly(
        self, platform_file, workload_file, capsys
    ):
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--algorithm",
                "wishful",
            ]
        )
        assert code == EXIT_ALGORITHM
        err = capsys.readouterr().err
        assert "Unknown algorithm" in err
        assert "Traceback" not in err

    def test_run_missing_file_fails_cleanly(self, platform_file, capsys):
        code = main(
            ["run", "--platform", str(platform_file), "--workload", "ghost.json"]
        )
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, leaf", [("--output-dir", ""), ("--trace", "/t.json")])
    def test_run_bad_output_path_fails_before_simulating(
        self, platform_file, workload_file, tmp_path, capsys, monkeypatch, flag, leaf
    ):
        # The path is checked before the platform is even loaded: a run
        # that printed its summary and then failed to save it is the bug.
        import repro.cli as cli

        monkeypatch.setattr(cli, "load_platform", _never_loaded)
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory")
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                flag,
                str(occupied) + leaf,
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert "error:" in captured.err and "occupied" in captured.err
        assert "makespan" not in captured.out
        assert occupied.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("really", [True, False])
    def test_run_existing_unwritable_output_dir_fails_before_simulating(
        self, platform_file, workload_file, tmp_path, capsys, monkeypatch, really
    ):
        import repro.cli as cli

        locked = tmp_path / "locked"
        locked.mkdir()
        if really:
            if os.geteuid() == 0:
                pytest.skip("root writes anywhere")
            locked.chmod(0o555)
        else:
            monkeypatch.setattr(
                cli.os, "access", lambda path, mode: Path(path) != locked
            )
        monkeypatch.setattr(cli, "load_platform", _never_loaded)
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--output-dir",
                str(locked),
            ]
        )
        locked.chmod(0o755)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.count("\n") == 1
        assert "error:" in captured.err and "not writable" in captured.err
        assert "makespan" not in captured.out

    def test_run_creates_missing_trace_parent(
        self, platform_file, workload_file, tmp_path
    ):
        trace = tmp_path / "new" / "dir" / "trace.jsonl"
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()

    def test_run_oversized_job_is_input_error(
        self, platform_file, tmp_path, capsys
    ):
        # A job wanting more nodes than the platform has: the two files
        # do not fit each other, which is the files' mistake (a JobError).
        wl = tmp_path / "big.json"
        wl.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "id": 1,
                            "type": "rigid",
                            "submit_time": 0,
                            "num_nodes": 1024,
                            "application": {
                                "phases": [{"tasks": [{"type": "cpu", "flops": 1e9}]}]
                            },
                        }
                    ]
                }
            )
        )
        code = main(["run", "--platform", str(platform_file), "--workload", str(wl)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: job1 needs at least 1024 nodes")
        assert "Traceback" not in err


def _one_task_workload(task):
    job = {
        "id": 1,
        "type": "rigid",
        "submit_time": 0,
        "num_nodes": 2,
        "application": {"phases": [{"tasks": [task]}]},
    }
    return {"jobs": [job]}


class TestWorkloadMistakesFoundMidRun:
    """A workload mistake is not a simulator bug: exit 3, never 70."""

    @pytest.mark.parametrize(
        "task, complaint",
        [
            ({"type": "cpu", "flops": "-1e12"}, "negative"),
            ({"type": "cpu", "flops": "nope * 2"}, "nope"),
            ({"type": "pfs_read", "bytes": 1e9}, "needs a PFS"),
            # Not an amount: used to finish at once (inf) or exit 70 (NaN).
            (
                {"type": "cpu", "flops": "1e400"},
                "Job job1, phase 'phase0': cpu.flops evaluated to non-finite value inf",
            ),
            ({"type": "cpu", "flops": "1e308*10"}, "cpu.flops evaluated to non-finite value inf"),
            (
                {"type": "cpu", "name": "solve", "flops": "1e400 - 1e400"},
                "phase 'phase0': solve.flops evaluated to non-finite value nan",
            ),
            (
                {"type": "evolving_request", "num_nodes": "1e400"},
                "evolving_request.num_nodes evaluated to non-finite value inf",
            ),
            # Too deep for the parser: used to be RecursionError, exit 70.
            (
                {"type": "cpu", "flops": "+".join(["1"] * 5000)},
                "phases[0].tasks[0]: Invalid expression for cpu.flops: "
                "Expression is more than 100 levels deep",
            ),
            (
                {"type": "comm", "bytes": "(" * 2000 + "1" + ")" * 2000},
                "Invalid expression for comm.bytes: Expression is more than 100 levels deep",
            ),
        ],
        ids=[
            "negative-flops",
            "unknown-variable",
            "no-pfs",
            "infinite-flops",
            "overflowing-flops",
            "nan-flops",
            "infinite-request",
            "5000-term-sum",
            "2000-brackets",
        ],
    )
    def test_exit_is_input_with_one_error_line(self, task, complaint, tmp_path, capsys):
        platform = {k: v for k, v in PLATFORM.items() if k != "pfs"}
        platform_file = tmp_path / "platform.json"
        platform_file.write_text(json.dumps(platform))
        workload_file = tmp_path / "workload.json"
        workload_file.write_text(json.dumps(_one_task_workload(task)))
        code = main(
            ["run", "--platform", str(platform_file), "--workload", str(workload_file)]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert complaint in err
        assert "internal error" not in err and "Traceback" not in err


def _whatif_scenario(**edits):
    """Six two-node jobs 25 s apart; ``edits`` maps a job id to its node count."""
    jobs = [
        {
            "id": jid,
            "submit_time": 25.0 * (jid - 1),
            "num_nodes": edits.get(f"job{jid}", 2),
            "application": {
                "phases": [{"tasks": [{"type": "cpu", "flops": 4e10}], "iterations": 3}]
            },
        }
        for jid in range(1, 7)
    ]
    return {"platform": PLATFORM, "workload": {"inline": {"jobs": jobs}}, "algorithm": "easy"}


class TestWhatIf:
    @pytest.fixture()
    def files(self, tmp_path):
        base, edited = tmp_path / "base.json", tmp_path / "edited.json"
        base.write_text(json.dumps(_whatif_scenario()))
        edited.write_text(json.dumps(_whatif_scenario(job6=5)))
        return base, edited

    @pytest.mark.parametrize("option", ["--base", "--edited"])
    @pytest.mark.parametrize(
        "content", ["[1, 2]", '{"platform": 5}'], ids=["not-an-object", "platform-not-an-object"]
    )
    def test_a_misshapen_scenario_file_is_an_input_error(
        self, option, content, files, tmp_path, capsys
    ):
        # Were exit 70 (AttributeError: 'list' object ...) and exit 5 / exit 0.
        argv = {"--base": str(files[0]), "--edited": str(files[1])}
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv[option] = str(bad)
        code = main(
            ["whatif", *[part for pair in argv.items() for part in pair],
             "--output-dir", str(tmp_path / "out")]
        )  # fmt: skip
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.json" in err
        assert not any(name in err for name in ("'list'", "'int'", "object has no", "Error:"))

    def test_checkpoints_are_recorded_once_and_replayed_from_after(
        self, files, tmp_path, capsys, monkeypatch
    ):
        from repro import Simulation

        built = []
        real = Simulation.from_spec.__func__

        def counting(cls, spec, **options):
            built.append(options.get("start_processes", True))
            return real(cls, spec, **options)

        monkeypatch.setattr(Simulation, "from_spec", classmethod(counting))
        records = []
        for out in ("first", "second"):
            code = main(
                ["whatif", "--base", str(files[0]), "--edited", str(files[1]),
                 "--snapshot-every", "25", "--checkpoints", str(tmp_path / "set"),
                 "--output-dir", str(tmp_path / out)]
            )  # fmt: skip
            assert code == EXIT_OK
            assert capsys.readouterr().out.startswith("warm replay from checkpoint")
            records.append((tmp_path / out / "whatif_record.json").read_bytes())
        assert records[0] == records[1]
        # First call: the base run, then the restore.  Second: the restore only.
        assert built == [True, False, False]
        kept = sorted(p.name for p in (tmp_path / "set").iterdir())
        assert kept and all(name.startswith("checkpoint-") for name in kept)

        # Another base: its set replaces the one found, nothing is resumed wrong.
        files[0].write_text(json.dumps(_whatif_scenario(job5=3)))
        code = main(
            ["whatif", "--base", str(files[0]), "--edited", str(files[1]), "--verify",
             "--snapshot-every", "25", "--checkpoints", str(tmp_path / "set"),
             "--output-dir", str(tmp_path / "third")]
        )  # fmt: skip
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("warm replay from checkpoint") and "byte-identical=True" in out
        assert built[3:] == [True, False, True]  # new base run, restore, --verify's cold run


CAMPAIGN = {
    "name": "cli-campaign",
    "platform": {
        "nodes": {"count": 8, "flops": 1e12},
        "network": {"topology": "star", "bandwidth": 1e10},
    },
    "workload": {"generate": {"num_jobs": 4, "max_request": 4}},
    "algorithms": ["fcfs", "easy"],
    "seeds": [0],
}


class TestCampaign:
    @pytest.fixture()
    def campaign_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(CAMPAIGN))
        return path

    def test_campaign_run_writes_reports(self, campaign_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(campaign_file),
                "--output-dir",
                str(outdir),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--workers",
                "1",
            ]
        )
        assert code == EXIT_OK
        aggregate = json.loads((outdir / "campaign.json").read_text())
        assert aggregate["campaign"]["scenarios"] == 2
        assert aggregate["campaign"]["failed"] == 0
        lines = (outdir / "scenarios.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["status"] == "ok" for line in lines)
        out = capsys.readouterr().out
        assert "2/2 scenarios ok" in out

    def test_store_dir_is_the_flag_else_the_environment(
        self, campaign_file, tmp_path, monkeypatch
    ):
        # $ELASTISIM_STORE_DIR is resolved here, by the one command that
        # offers it; ResultCache itself reads no such variable.
        def run(label, *extra):
            argv = ["campaign", "run", "--spec", str(campaign_file), "--workers", "1",
                    "--quiet", "--output-dir", str(tmp_path / f"out-{label}"),
                    "--cache-dir", str(tmp_path / f"cache-{label}"), *extra]  # fmt: skip
            assert main(argv) == EXIT_OK

        def entries(root):
            return sorted(p.name for p in root.glob("??/*.json"))

        monkeypatch.delenv("ELASTISIM_STORE_DIR", raising=False)
        run("plain")
        assert len(entries(tmp_path / "cache-plain")) == 2
        monkeypatch.setenv("ELASTISIM_STORE_DIR", str(tmp_path / "env-shared"))
        run("env")
        assert entries(tmp_path / "env-shared") == entries(tmp_path / "cache-plain")
        run("flag", "--store-dir", str(tmp_path / "flag-shared"), "--force")
        assert entries(tmp_path / "flag-shared") == entries(tmp_path / "cache-plain")
        # Another host: empty local cache, everything from the shared tree.
        run("other-host")
        aggregate = json.loads((tmp_path / "out-other-host" / "campaign.json").read_text())
        assert aggregate["campaign"]["cache_hits"] == 2
        assert aggregate["campaign"]["executor"] == "cache"

    def test_campaign_run_missing_spec(self, tmp_path, capsys):
        code = main(["campaign", "run", "--spec", str(tmp_path / "ghost.json")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_campaign_run_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"workload": {"generate": {}}}))
        code = main(["campaign", "run", "--spec", str(bad)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_campaign_run_engine_block_is_one_clean_line(self, tmp_path, capsys):
        # No engine option reaches a campaign: the block is an unknown key.
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**CAMPAIGN, "engine": {"array_engine": False}}))
        code = main(["campaign", "run", "--spec", str(old)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: unknown key(s) ['engine']; the keys are [")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "sim, names",
        [
            ({"failures": 5}, "sim.failures must be an object"),
            ({"failures": {"mtbf": "x"}}, "sim.failures.mtbf must be a finite number > 0"),
            ({"invocation_interval": "abc"}, "sim.invocation_interval must be a finite number > 0"),
            ({"max_requeues": "x"}, "sim.max_requeues must be an integer >= 0"),
        ],
    )
    def test_a_bad_campaign_is_refused_before_it_runs_not_reported_per_scenario(
        self, tmp_path, capsys, monkeypatch, sim, names
    ):
        # These used to expand, dispatch, and come back as one `failed`
        # record per scenario (exit 5) — max_requeues: "x" even as exit 0.
        import repro.campaign as campaign

        def never(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(campaign, "run_scenario", never)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({**CAMPAIGN, "sim": sim}))
        code = main(["campaign", "run", "--spec", str(spec), "--output-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith(f"error: {spec}: scenario fcfs/seed=0: {names}")
        assert captured.err.count("\n") == 1 and not (tmp_path / "o").exists()

    def test_a_campaign_checks_each_distinct_fragment_once_not_each_scenario(
        self, tmp_path, monkeypatch
    ):
        import repro.batch.system as system
        import repro.campaign as campaign

        calls = {part: 0 for part in system._PART_READERS}
        for part, check in list(system._PART_READERS.items()):

            def counted(fragment, part=part, check=check):
                calls[part] += 1
                return check(fragment)

            monkeypatch.setitem(system._PART_READERS, part, counted)
        spec = tmp_path / "grid.json"
        spec.write_text(
            json.dumps({**CAMPAIGN, "seeds": [0, 1, 2], "grid": {"x": [1, 2]},
                        "sim": {"max_requeues": "x + 1"}})
        )  # fmt: skip
        scenarios = campaign.load_campaign(spec)
        assert len(scenarios) == 12
        # One platform, one workload (the seed is not part of it), one sim per x.
        assert calls == {"platform": 1, "workload": 1, "sim": 2}

    @pytest.mark.parametrize(
        "fault", ["output-dir-occupied", "fingerprints-parent-occupied", "output-dir-locked"]
    )
    def test_campaign_run_bad_output_path_fails_before_any_scenario_runs(
        self, campaign_file, tmp_path, capsys, monkeypatch, fault
    ):
        # The report is written after the whole campaign: the paths it
        # will need are created and checked before the first scenario.
        import repro.campaign as campaign
        import repro.cli as cli

        def never(*_args, **_kwargs):
            raise AssertionError("campaign ran before its output paths were checked")

        monkeypatch.setattr(campaign.CampaignRunner, "run", never)
        bad = tmp_path / "bad"
        outdir, fingerprints = tmp_path / "out", tmp_path / "fp" / "prints.json"
        if fault == "output-dir-locked":
            bad.mkdir()
            monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != bad)
            outdir = bad
        else:
            bad.write_text("a file, not a directory")
            if fault == "output-dir-occupied":
                outdir = bad
            else:
                fingerprints = bad / "prints.json"
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(campaign_file),
                "--output-dir",
                str(outdir),
                "--fingerprints",
                str(fingerprints),
                "--no-cache",
                "--workers",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.count("\n") == 1
        assert "error:" in captured.err and "bad" in captured.err
        assert "Traceback" not in captured.err

    def test_campaign_failed_scenario_is_runtime_exit(self, tmp_path, capsys):
        spec = dict(CAMPAIGN, algorithms=["easy", "wishful-thinking"])
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(path),
                "--output-dir",
                str(tmp_path / "out"),
                "--no-cache",
                "--workers",
                "1",
            ]
        )
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "wishful-thinking" in err
        # The good half of the campaign still ran to completion.
        aggregate = json.loads((tmp_path / "out" / "campaign.json").read_text())
        assert aggregate["campaign"]["failed"] == 1
        assert aggregate["campaign"]["scenarios"] == 2

    def test_campaign_compare_clean_and_regressed(self, tmp_path, capsys):
        baseline = {
            "header": ["scenario", "makespan", "mean_utilization"],
            "rows": [{"scenario": "a", "makespan": 100.0, "mean_utilization": 0.8}],
        }
        current_ok = {
            "header": ["scenario", "makespan", "mean_utilization"],
            "rows": [{"scenario": "a", "makespan": 101.0, "mean_utilization": 0.8}],
        }
        current_bad = {
            "header": ["scenario", "makespan", "mean_utilization"],
            "rows": [{"scenario": "a", "makespan": 150.0, "mean_utilization": 0.8}],
        }
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(current_ok))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(current_bad))

        assert main(["campaign", "compare", str(good), str(base)]) == EXIT_OK
        assert main(["campaign", "compare", str(bad), str(base)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # Soft mode downgrades the failure; missing baselines can be waived.
        assert main(["campaign", "compare", str(bad), str(base), "--soft"]) == EXIT_OK
        assert (
            main(
                [
                    "campaign",
                    "compare",
                    str(bad),
                    str(tmp_path / "ghost.json"),
                    "--missing-baseline-ok",
                ]
            )
            == EXIT_OK
        )


class TestCampaignReport:
    @staticmethod
    def record(workload, algorithm, makespan):
        return {
            "name": f"{algorithm}/{workload}/seed=0",
            "params": {"workload": workload},
            "status": "ok",
            "result": {
                "summary": {
                    "makespan": makespan,
                    "mean_utilization": 0.8,
                    "completed_jobs": 4,
                }
            },
            "scenario": {"algorithm": algorithm, "seed": 0},
        }

    @pytest.fixture()
    def shards(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        records = [
            self.record("mix-a", "easy", 100.0),
            self.record("mix-a", "malleable", 80.0),
            self.record("mix-b", "easy", 120.0),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_campaign_report_renders_and_writes(self, shards, tmp_path, capsys):
        outdir = tmp_path / "report"
        code = main(
            [
                "campaign",
                "report",
                str(shards),
                "--group-by",
                "workload,algorithm",
                "--title",
                "CLI study",
                "--output-dir",
                str(outdir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# CLI study" in out
        assert "workload=mix-a/algorithm=malleable" in out
        payload = json.loads((outdir / "report.json").read_text())
        assert len(payload["rows"]) == 3
        assert (outdir / "report.md").read_text().startswith("# CLI study")

    def test_campaign_report_metric_selection(self, shards, capsys):
        code = main(
            ["campaign", "report", str(shards), "--metric", "makespan"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "makespan_mean" in out
        assert "mean_utilization_mean" not in out

    def test_campaign_report_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["campaign", "report", str(tmp_path / "ghost.jsonl")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_campaign_report_empty_dir_is_usage_error(self, tmp_path, capsys):
        code = main(["campaign", "report", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "nothing to report" in capsys.readouterr().err


class TestCampaignExecutors:
    @pytest.fixture()
    def campaign_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(CAMPAIGN))
        return path

    def run_with(self, campaign_file, tmp_path, label, *extra):
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(campaign_file),
                "--output-dir",
                str(tmp_path / f"out-{label}"),
                "--no-cache",
                "--workers",
                "1",
                "--fingerprints",
                str(tmp_path / f"{label}.json"),
                *extra,
            ]
        )
        assert code == EXIT_OK
        return (tmp_path / f"{label}.json").read_bytes()

    def test_executor_flag_and_fingerprint_identity(
        self, campaign_file, tmp_path, capsys
    ):
        chosen = self.run_with(campaign_file, tmp_path, "chosen")
        in_process = self.run_with(
            campaign_file, tmp_path, "inproc", "--executor", "in-process"
        )
        # The contract the CI matrix fan-in enforces: byte-identical files.
        assert in_process == chosen
        # One worker: in-process is also what the runner chooses unasked.
        assert capsys.readouterr().out.count("(in-process)") == 2
        names = set(json.loads(chosen))
        assert names == {"fcfs/seed=0", "easy/seed=0"}

    def test_parser_executor_choices_mirror_the_registry(self):
        # The parser keeps its own tuple so that building it does not
        # import the campaign fabric; the registry stays the authority.
        import repro.cli as cli
        from repro.campaign import executor_names

        assert cli._EXECUTORS == executor_names()

    def test_spec_executor_is_validated_early(self, tmp_path, capsys):
        spec = dict(CAMPAIGN, executor="carrier-pigeon")
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        assert main(["campaign", "run", "--spec", str(path)]) == EXIT_INPUT
        assert "unknown executor" in capsys.readouterr().err

    def test_spec_scenario_timeout_is_validated_early(self, tmp_path, capsys):
        spec = dict(CAMPAIGN, scenario_timeout=-5)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        assert main(["campaign", "run", "--spec", str(path)]) == EXIT_INPUT
        assert "scenario_timeout" in capsys.readouterr().err

    def test_worker_against_missing_queue(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "worker",
                "--queue-dir",
                str(tmp_path / "ghost"),
                "--wait-for-queue",
                "0",
                "--quiet",
            ]
        )
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_aggregate_folds_shards(self, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        record = {
            "status": "ok",
            "wall_s": 0.25,
            "result": {"summary": {"makespan": 100.0}},
        }
        (shard_dir / "w1.jsonl").write_text(json.dumps(record) + "\n")
        (shard_dir / "w2.jsonl").write_text(
            json.dumps(dict(record, result={"summary": {"makespan": 200.0}}))
            + "\n"
            + json.dumps({"status": "failed", "error_kind": "timeout"})
            + "\n"
        )
        out = tmp_path / "aggregate.json"
        code = main(
            ["campaign", "aggregate", str(shard_dir), "--output", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "failed=1" in stdout and "ok=2" in stdout
        payload = json.loads(out.read_text())
        assert payload["scenarios"] == 3
        assert payload["error_kinds"] == {"timeout": 1}
        assert payload["metrics"]["makespan"]["mean"] == pytest.approx(150.0)

    def test_aggregate_without_shards(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["campaign", "aggregate", str(empty)]) == EXIT_USAGE
        assert "nothing to aggregate" in capsys.readouterr().err


class TestRoundTrip:
    def test_workload_roundtrip_preserves_jobs(self, tmp_path):
        from repro.workload import (
            WorkloadSpec,
            generate_workload,
            load_workload,
            workload_to_dict,
        )

        jobs = generate_workload(
            WorkloadSpec(num_jobs=8, malleable_fraction=0.5, data_per_node=1e9),
            seed=5,
        )
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(workload_to_dict(jobs)))
        loaded = load_workload(path)
        assert [j.jid for j in loaded] == [j.jid for j in jobs]
        assert [j.type for j in loaded] == [j.type for j in jobs]
        assert [j.num_nodes for j in loaded] == [j.num_nodes for j in jobs]
        assert [j.walltime for j in loaded] == pytest.approx(
            [j.walltime for j in jobs]
        )

    def test_application_roundtrip(self):
        from repro.application import application_from_dict, application_to_dict
        from repro.workload import iterative_application

        app = iterative_application(
            total_flops=1e12,
            iterations=7,
            comm_bytes_per_msg=1e6,
            input_bytes=1e9,
            output_bytes=2e9,
            checkpoint_bytes=5e8,
            checkpoint_every=3,
            data_per_node=2e9,
        )
        spec = application_to_dict(app)
        clone = application_from_dict(spec)
        assert len(clone.phases) == len(app.phases)
        assert clone.phases[1].num_iterations({}) == 7
        # Checkpoint expression survives the round trip.
        ckpt_a = app.phases[1].tasks[-1]
        ckpt_b = clone.phases[1].tasks[-1]
        for it in range(7):
            assert ckpt_a.bytes_per_node({"iteration": it}, 1) == ckpt_b.bytes_per_node(
                {"iteration": it}, 1
            )


class TestTraceCommands:
    def test_record_check_convert_round_trip(
        self, platform_file, workload_file, tmp_path, capsys
    ):
        jsonl = tmp_path / "run.trace.jsonl"
        code = main(
            [
                "trace",
                "record",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--algorithm",
                "malleable",
                "--output",
                str(jsonl),
                "--check",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "invariants OK" in out
        assert jsonl.exists()

        assert main(["trace", "check", str(jsonl), "--nodes", "16"]) == EXIT_OK

        chrome = tmp_path / "run.trace.json"
        assert main(["trace", "convert", str(jsonl), str(chrome)]) == EXIT_OK
        from repro.tracing import validate_chrome_trace

        validate_chrome_trace(json.loads(chrome.read_text()))

    def test_record_chrome_output_directly(
        self, platform_file, workload_file, tmp_path
    ):
        chrome = tmp_path / "direct.json"
        code = main(
            [
                "trace",
                "record",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--output",
                str(chrome),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(chrome.read_text())
        assert payload["otherData"]["schema"] == "elastisim-trace"

    def test_check_flags_violations_with_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        records = [
            {"schema": "elastisim-trace", "version": 1},
            {
                "time": 0.0,
                "kind": "node.alloc",
                "ph": "I",
                "track": "node:0",
                "name": "a",
                "args": {"node": 0, "jid": 1},
            },
            {
                "time": 1.0,
                "kind": "node.alloc",
                "ph": "I",
                "track": "node:0",
                "name": "b",
                "args": {"node": 0, "jid": 2},
            },
        ]
        bad.write_text("\n".join(json.dumps(r) for r in records))
        assert main(["trace", "check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "node-double-alloc" in err

    def test_check_missing_trace_is_input_error(self, tmp_path, capsys):
        code = main(["trace", "check", str(tmp_path / "ghost.jsonl")])
        assert code == EXIT_INPUT
        assert "ghost.jsonl: cannot read the file" in capsys.readouterr().err

    def test_run_with_trace_and_invariants(
        self, platform_file, workload_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.json"
        code = main(
            [
                "run",
                "--platform",
                str(platform_file),
                "--workload",
                str(workload_file),
                "--trace",
                str(trace),
                "--check-invariants",
            ]
        )
        assert code == EXIT_OK
        assert trace.exists()
        assert "trace written" in capsys.readouterr().out


class TestProfile:
    def test_profile_smoke_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--jobs",
                "20",
                "--nodes",
                "8",
                "--seed",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert "kernel/other" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "elastisim-profile/3"
        sections = payload["sections"]
        total = sum(sections.values())
        # Sections partition the wall clock (other_s absorbs the remainder).
        assert total == pytest.approx(payload["wall_s"], rel=1e-6)
        assert payload["events"] > 0
        assert payload["counters"]["solver"]["resolves"] > 0
        assert payload["counters"]["expressions"]["evaluations"] > 0
        assert payload["memory"]["peak_rss_mb"] > 0
        assert payload["memory"]["tracemalloc"] is None

    def test_profile_tracemalloc_section(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--jobs",
                "5",
                "--nodes",
                "4",
                "--tracemalloc",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert "traced peak" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        malloc_stats = payload["memory"]["tracemalloc"]
        assert malloc_stats["peak_mb"] > 0
        assert malloc_stats["top_allocations"]
        for row in malloc_stats["top_allocations"]:
            assert row["size_mb"] >= 0 and row["blocks"] >= 1 and row["location"]

    def test_profile_cprofile_top_functions(self, capsys):
        code = main(
            ["profile", "--jobs", "5", "--nodes", "4", "--cprofile", "--top", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "calls" in out
