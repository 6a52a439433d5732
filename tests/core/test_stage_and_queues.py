"""Stage API, TaskCost validation, and the work-queue library."""

import pytest

from repro.core import OUTPUT, EmitContext, ExecutionError, Stage, TaskCost
from repro.core.errors import PipelineDefinitionError
from repro.core.queues import QueuedItem, QueueStats, queue_op_cost
from repro.core.queueset import SharedQueueSet
from repro.gpu.specs import K20C


class TestTaskCost:
    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            TaskCost(-1.0)

    def test_mem_fraction_bounds(self):
        with pytest.raises(ValueError):
            TaskCost(1.0, mem_fraction=1.5)
        with pytest.raises(ValueError):
            TaskCost(1.0, mem_fraction=-0.1)

    def test_negative_min_cycles_rejected(self):
        with pytest.raises(ValueError):
            TaskCost(1.0, min_cycles=-5.0)

    def test_floor_cycles(self):
        assert TaskCost(100.0, min_cycles=50.0).floor_cycles == 100.0
        assert TaskCost(100.0, min_cycles=500.0).floor_cycles == 500.0


class TestEmitContext:
    def test_emit_to_allowed_stage(self):
        ctx = EmitContext(["next"])
        ctx.emit("next", 42)
        assert ctx.children == [("next", 42)]

    def test_emit_to_undeclared_stage_raises(self):
        ctx = EmitContext(["next"])
        with pytest.raises(ExecutionError, match="not declared"):
            ctx.emit("elsewhere", 42)

    def test_emit_output(self):
        ctx = EmitContext([])
        ctx.emit_output("done")
        ctx.emit(OUTPUT, "done2")
        assert ctx.outputs == ["done", "done2"]

    def test_emit_by_stage_class(self):
        class Target(Stage):
            name = "target"

        ctx = EmitContext(["target"])
        ctx.emit(Target, 1)
        assert ctx.children == [("target", 1)]


class TestStageValidation:
    def test_threads_per_item_must_be_positive(self):
        class Bad(Stage):
            name = "bad"
            threads_per_item = 0

        with pytest.raises(PipelineDefinitionError):
            Bad()

    def test_threads_per_item_cannot_exceed_block(self):
        class Bad(Stage):
            name = "bad"
            threads_per_item = 512
            threads_per_block = 256

        with pytest.raises(PipelineDefinitionError):
            Bad()

    def test_items_per_block(self):
        class S(Stage):
            name = "s"
            threads_per_item = 32
            threads_per_block = 256

        assert S().items_per_block() == 8

    def test_kernel_spec_reflects_attributes(self):
        class S(Stage):
            name = "s"
            registers_per_thread = 77
            threads_per_block = 128
            shared_mem_per_block = 4096
            code_bytes = 999

        spec = S().kernel_spec()
        assert spec.registers_per_thread == 77
        assert spec.threads_per_block == 128
        assert spec.shared_mem_per_block == 4096
        assert spec.code_bytes == 999


class TestWorkQueue:
    """One stage queue of a queue set: FIFO order, the statistics read
    off its tally, and the producer tag."""

    def test_fifo_order(self):
        qs = SharedQueueSet({"s": 8}, K20C)
        qs.push("s", list(range(5)), None)
        batch, _cost = qs.pop("s", 3, None)
        assert [qi.payload for qi in batch] == [0, 1, 2]
        assert qs.depth.current["s"] == 2

    def test_stats_tracking(self):
        qs = SharedQueueSet({"s": 16}, K20C)
        qs.push("s", [1], None)
        qs.push("s", [2], None)
        qs.pop("s", 1, None)
        assert qs.stats()["s"] == QueueStats(
            enqueued=2, dequeued=1, peak_length=2, bytes_moved=32
        )

    def test_producer_sm_recorded(self):
        qs = SharedQueueSet({"s": 8}, K20C)
        qs.push("s", ["payload"], producer_sm=7)
        item = qs.pop("s", 1, None)[0][0]
        assert isinstance(item, QueuedItem)
        assert item.producer_sm == 7

    def test_pop_from_empty(self):
        qs = SharedQueueSet({"s": 8}, K20C)
        assert qs.pop("s", 4, None) == ([], 0.0)
        assert not qs.has_work("s")


class TestQueueCost:
    def test_zero_items_cost_nothing(self):
        assert queue_op_cost(K20C, 16, 0, 1.0) == 0.0

    def test_batching_amortises_fixed_cost(self):
        one_each = 10 * queue_op_cost(K20C, 16, 1, 0.0)
        batched = queue_op_cost(K20C, 16, 10, 0.0)
        assert batched < one_each

    def test_larger_items_cost_more(self):
        small = queue_op_cost(K20C, 12, 4, 0.0)
        large = queue_op_cost(K20C, 272, 4, 0.0)
        assert large > small

    def test_contention_increases_cost(self):
        calm = queue_op_cost(K20C, 16, 1, 0.0)
        contended = queue_op_cost(K20C, 16, 1, 8.0)
        assert contended > calm
