"""Tests for Phase / ApplicationModel and the JSON loader."""

import json

import pytest

from repro.application import (
    ApplicationError,
    ApplicationModel,
    CommTask,
    CpuTask,
    Phase,
    application_from_dict,
    load_application,
)
from repro.application.loader import task_from_dict


VALID_SPEC = {
    "name": "demo-app",
    "data_per_node": "2e9",
    "phases": [
        {"name": "init", "tasks": [{"type": "pfs_read", "bytes": "1e10"}]},
        {
            "name": "solve",
            "iterations": "num_steps",
            "tasks": [
                {"type": "cpu", "flops": "2e13 / num_nodes", "distribution": "per_node"},
                {"type": "comm", "bytes": "5e6", "pattern": "ring"},
            ],
        },
        {"name": "output", "tasks": [{"type": "pfs_write", "bytes": "5e10"}]},
    ],
}


class TestPhase:
    def test_empty_tasks_rejected(self):
        with pytest.raises(ApplicationError, match="no tasks"):
            Phase([], name="empty")

    def test_non_task_rejected(self):
        with pytest.raises(ApplicationError, match="not a Task"):
            Phase(["not a task"], name="bad")  # type: ignore[list-item]

    def test_iterations_expression(self):
        phase = Phase([CpuTask(1)], iterations="steps // 2")
        assert phase.num_iterations({"steps": 10}) == 5

    def test_iterations_below_one_rejected(self):
        phase = Phase([CpuTask(1)], iterations=0)
        with pytest.raises(ApplicationError, match=">= 1"):
            phase.num_iterations({})

    def test_scheduling_point_default_true(self):
        assert Phase([CpuTask(1)]).scheduling_point is True


class TestApplicationModel:
    def test_empty_phases_rejected(self):
        with pytest.raises(ApplicationError, match="no phases"):
            ApplicationModel([])

    def test_non_phase_rejected(self):
        with pytest.raises(ApplicationError, match="not a Phase"):
            ApplicationModel([CpuTask(1)])  # type: ignore[list-item]

    def test_redistribution_bytes(self):
        model = ApplicationModel([Phase([CpuTask(1)])], data_per_node="1e9 * 2")
        assert model.redistribution_bytes_per_node({}) == 2e9

    def test_default_free_reconfiguration(self):
        model = ApplicationModel([Phase([CpuTask(1)])])
        assert model.redistribution_bytes_per_node({}) == 0

    def test_negative_data_per_node_raises(self):
        model = ApplicationModel([Phase([CpuTask(1)])], data_per_node="-1")
        with pytest.raises(ApplicationError, match="negative"):
            model.redistribution_bytes_per_node({})


class TestLoader:
    def test_valid_spec_builds(self):
        model = application_from_dict(VALID_SPEC)
        assert model.name == "demo-app"
        assert len(model.phases) == 3
        assert model.phases[1].name == "solve"
        assert isinstance(model.phases[1].tasks[1], CommTask)

    def test_all_task_types_parse(self):
        specs = [
            {"type": "cpu", "flops": 1},
            {"type": "gpu", "flops": 1},
            {"type": "comm", "bytes": 1},
            {"type": "pfs_read", "bytes": 1},
            {"type": "pfs_write", "bytes": 1},
            {"type": "bb_read", "bytes": 1},
            {"type": "bb_write", "bytes": 1, "charge": False},
            {"type": "delay", "seconds": 5},
            {"type": "evolving_request", "num_nodes": 4, "blocking": True},
        ]
        for spec in specs:
            task_from_dict(spec)

    def test_unknown_task_type(self):
        with pytest.raises(ApplicationError, match=r"^task\.type must be one of \[.*\], got \'quantum\'"):
            task_from_dict({"type": "quantum"})

    def test_missing_magnitude(self):
        with pytest.raises(ApplicationError, match=r"^task\.flops is required"):
            task_from_dict({"type": "cpu"})

    def test_unknown_pattern(self):
        with pytest.raises(ApplicationError, match=r"^task\.pattern must be one of \[.*\], got \'butterfly\'"):
            task_from_dict({"type": "comm", "bytes": 1, "pattern": "butterfly"})

    def test_unknown_distribution(self):
        with pytest.raises(ApplicationError, match=r"^task\.distribution must be one of \[.*\], got \'random\'"):
            task_from_dict({"type": "cpu", "flops": 1, "distribution": "random"})

    def test_phases_must_be_nonempty_list(self):
        with pytest.raises(ApplicationError, match="non-empty"):
            application_from_dict({"phases": []})

    def test_missing_phases(self):
        with pytest.raises(ApplicationError, match="phases"):
            application_from_dict({"name": "x"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "app.json"
        path.write_text(json.dumps(VALID_SPEC))
        model = load_application(path)
        assert model.name == "demo-app"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ApplicationError, match=r"nope\.json: cannot read the file"):
            load_application(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[whoops")
        with pytest.raises(ApplicationError, match=r"bad\.json: not JSON"):
            load_application(path)
