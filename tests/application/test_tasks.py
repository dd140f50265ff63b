"""Tests for task types: magnitudes, distributions, and comm patterns."""

import pytest

from repro.application import (
    ApplicationError,
    ApplicationModel,
    BbWriteTask,
    CommPattern,
    CommTask,
    CpuTask,
    DelayTask,
    Distribution,
    EvolvingRequest,
    GpuTask,
    PfsWriteTask,
    Phase,
)


class TestCpuTask:
    def test_even_distribution_splits_total(self):
        task = CpuTask("1e12")
        assert task.flops_per_node({}, num_nodes=4) == 2.5e11

    def test_per_node_distribution(self):
        task = CpuTask("1e10", distribution=Distribution.PER_NODE)
        assert task.flops_per_node({}, num_nodes=4) == 1e10

    def test_expression_with_num_nodes(self):
        task = CpuTask("1e12 / num_nodes", distribution=Distribution.PER_NODE)
        assert task.flops_per_node({"num_nodes": 8}, num_nodes=8) == 1.25e11

    def test_negative_result_raises(self):
        task = CpuTask("-5")
        with pytest.raises(ApplicationError, match="negative"):
            task.flops_per_node({}, num_nodes=1)

    def test_bad_expression_rejected_at_build(self):
        with pytest.raises(ApplicationError, match="Invalid expression"):
            CpuTask("1 +")

    def test_unknown_variable_raises_at_eval(self):
        task = CpuTask("nope * 2")
        with pytest.raises(ApplicationError, match="Evaluating"):
            task.flops_per_node({}, num_nodes=1)


#: Every place a magnitude is evaluated, as a function of its source.
_EVALUATIONS = {
    "cpu.flops": lambda src: CpuTask(src).flops_per_node({}, 2),
    "cpu.serial_fraction": lambda src: CpuTask(1, serial_fraction=src).flops_per_node({}, 2),
    "gpu.flops": lambda src: GpuTask(src).flops_per_node({}, 2),
    "comm.bytes": lambda src: CommTask(src).message_size({}),
    "pfs_write.bytes": lambda src: PfsWriteTask(src).bytes_per_node({}, 2),
    "delay.seconds": lambda src: DelayTask(src).duration({}),
    "evolving_request.num_nodes": lambda src: EvolvingRequest(src).desired_nodes({}),
    "phase 'p' iterations": lambda src: Phase(
        [CpuTask(1)], iterations=src, name="p"
    ).num_iterations({}),
    "application 'a' data_per_node": lambda src: ApplicationModel(
        [Phase([CpuTask(1)])], data_per_node=src, name="a"
    ).redistribution_bytes_per_node({}),
}


class TestMagnitudesAreAmounts:
    """Whatever is evaluated must come out in ``0 <= value < inf``."""

    @pytest.mark.parametrize("what", sorted(_EVALUATIONS))
    @pytest.mark.parametrize(
        "source, shown",
        [
            ("1e400", "non-finite value inf"),
            ("1e308 * 10", "non-finite value inf"),
            ("1e400 - 1e400", "non-finite value nan"),
            ("-1e400", "negative value -inf"),
            ("0 - 3", "negative value -3.0"),
        ],
    )
    def test_refused_naming_the_field(self, what, source, shown):
        with pytest.raises(ApplicationError) as info:
            _EVALUATIONS[what](source)
        assert str(info.value) == f"{what} evaluated to {shown}"

    @pytest.mark.parametrize("what", sorted(_EVALUATIONS))
    def test_what_does_not_evaluate_names_the_field_too(self, what):
        with pytest.raises(ApplicationError) as info:
            _EVALUATIONS[what]("nope + 1")
        assert str(info.value) == (
            f"Evaluating {what} failed: Unknown variable 'nope'; available: []"
        )

    @pytest.mark.parametrize("what", sorted(_EVALUATIONS))
    def test_what_does_not_parse_is_refused_at_build(self, what):
        with pytest.raises(ApplicationError) as info:
            _EVALUATIONS[what]("1 +")
        assert str(info.value).startswith(f"Invalid expression for {what}: ")


class TestCommTaskPatterns:
    def test_alltoall_pairs(self):
        flows = CommTask(1, pattern=CommPattern.ALL_TO_ALL).flows(3)
        assert sorted(flows) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_ring_pairs(self):
        flows = CommTask(1, pattern=CommPattern.RING).flows(4)
        assert flows == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_bcast_pairs(self):
        flows = CommTask(1, pattern=CommPattern.BCAST).flows(4)
        assert flows == [(0, 1), (0, 2), (0, 3)]

    def test_gather_pairs(self):
        flows = CommTask(1, pattern=CommPattern.GATHER).flows(4)
        assert flows == [(1, 0), (2, 0), (3, 0)]

    def test_pairwise_even_count(self):
        flows = CommTask(1, pattern=CommPattern.PAIRWISE).flows(4)
        assert flows == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_pairwise_odd_count_leaves_last_alone(self):
        flows = CommTask(1, pattern=CommPattern.PAIRWISE).flows(5)
        assert (4, 3) not in flows and (3, 4) not in flows

    def test_single_node_no_flows(self):
        for pattern in CommPattern:
            assert CommTask(1, pattern=pattern).flows(1) == []

    def test_message_size_expression(self):
        task = CommTask("1e6 * (num_nodes - 1)")
        assert task.message_size({"num_nodes": 5}) == 4e6


class TestIoTasks:
    def test_even_bytes_split(self):
        task = PfsWriteTask("1e9")
        assert task.bytes_per_node({}, num_nodes=4) == 2.5e8

    def test_per_node_bytes(self):
        task = PfsWriteTask("1e9", distribution=Distribution.PER_NODE)
        assert task.bytes_per_node({}, num_nodes=4) == 1e9

    def test_bb_write_charge_flag(self):
        assert BbWriteTask(1).charge is True
        assert BbWriteTask(1, charge=False).charge is False


class TestDelayTask:
    def test_duration(self):
        assert DelayTask("30 * 2").duration({}) == 60

    def test_negative_duration_raises(self):
        with pytest.raises(ApplicationError):
            DelayTask("-1").duration({})


class TestEvolvingRequest:
    def test_desired_nodes_rounds(self):
        req = EvolvingRequest("num_nodes * 2")
        assert req.desired_nodes({"num_nodes": 3}) == 6

    def test_zero_request_rejected(self):
        req = EvolvingRequest("0")
        with pytest.raises(ApplicationError, match=">= 1"):
            req.desired_nodes({})

    def test_blocking_flag(self):
        assert EvolvingRequest(2).blocking is False
        assert EvolvingRequest(2, blocking=True).blocking is True
