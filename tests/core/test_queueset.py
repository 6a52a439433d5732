"""Shared vs distributed (work-stealing) queue organisations."""

import pytest

from repro.core import FunctionalExecutor
from repro.core.errors import ConfigurationError
from repro.core.models import MegakernelModel
from repro.core.queues import queue_op_cost
from repro.core.queueset import (
    HOST_SHARD,
    DistributedQueueSet,
    SharedQueueSet,
    make_queue_set,
)
from repro.core.runcontext import RunContext
from repro.gpu import GPUDevice, K20C

from .conftest import toy_expected, toy_pipeline

STAGES = {"a": 16, "b": 272}


class TestFactory:
    def test_modes(self):
        assert isinstance(
            make_queue_set("shared", STAGES, K20C), SharedQueueSet
        )
        assert isinstance(
            make_queue_set("distributed", STAGES, K20C), DistributedQueueSet
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_queue_set("quantum", STAGES, K20C)


class TestSharedQueueSet:
    def test_push_pop_roundtrip(self):
        qs = SharedQueueSet(STAGES, K20C)
        qs.push("a", ["x"], producer_sm=0)
        qs.push("a", ["y"], producer_sm=1)
        batch, cost = qs.pop("a", 10, sm_id=5)
        assert [qi.payload for qi in batch] == ["x", "y"]
        assert cost > 0
        assert not qs.has_work("a")

    def test_contention_raises_cost(self):
        calm = SharedQueueSet(STAGES, K20C)
        busy = SharedQueueSet(STAGES, K20C)
        busy.contention_level = 8.0
        for qs in (calm, busy):
            qs.push("a", ["x"], None)
        _, calm_cost = calm.pop("a", 1, 0)
        _, busy_cost = busy.pop("a", 1, 0)
        assert busy_cost > calm_cost

    def test_cost_follows_a_contention_change(self):
        # Operation costs are memoized per (stage, count); a new
        # contention level must not reuse the old level's entries.
        qs = SharedQueueSet(STAGES, K20C)
        calm = qs.op_cost("a", 1)
        qs.contention_level = 8.0
        busy = qs.op_cost("a", 1)
        assert busy == calm + K20C.queue_contention_cycles * 8.0
        qs.push("a", ["x"], None)
        assert qs.pop("a", 1, 0)[1] == busy

    def test_never_steals(self):
        qs = SharedQueueSet(STAGES, K20C)
        qs.push("a", ["x"], producer_sm=3)
        qs.pop("a", 1, sm_id=9)
        assert qs.steals == 0


class TestDistributedQueueSet:
    def test_local_pop_prefers_own_shard(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", ["mine"], producer_sm=2)
        qs.push("a", ["theirs"], producer_sm=7)
        batch, _cost = qs.pop("a", 10, sm_id=2)
        assert [qi.payload for qi in batch] == ["mine"]
        assert qs.steals == 0

    def test_steals_from_richest_when_local_empty(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", ["r1"], producer_sm=7)
        qs.push("a", ["r2"], producer_sm=7)
        qs.push("a", ["p"], producer_sm=3)
        batch, _cost = qs.pop("a", 10, sm_id=2)
        # shard 7 is richest -> stolen wholesale.
        assert [qi.payload for qi in batch] == ["r1", "r2"]
        assert qs.steals == 1

    def test_steal_costs_more_than_local(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", ["x"], producer_sm=2)
        _, local_cost = qs.pop("a", 1, sm_id=2)
        qs.push("a", ["y"], producer_sm=2)
        _, steal_cost = qs.pop("a", 1, sm_id=9)
        assert steal_cost > local_cost

    def test_host_shard_for_initial_items(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", ["init"], producer_sm=None)
        batch, _ = qs.pop("a", 1, sm_id=None)
        assert batch[0].payload == "init"

    def test_backlog_spans_shards(self):
        qs = DistributedQueueSet(STAGES, K20C)
        for sm in (0, 4, 9, None):
            qs.push("a", [sm], producer_sm=sm)
        assert qs.depth.current["a"] == 4
        assert qs.has_work("a")
        qs.drain("a")
        assert qs.depth.current["a"] == 0
        assert not qs.has_work("a")

    def test_drain_limit_spans_shards_in_order(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", ["x0", "x1"], producer_sm=4)
        qs.push("a", ["h"], producer_sm=None)
        qs.push("a", ["y0", "y1"], producer_sm=0)
        drained = qs.drain("a", 3)
        assert [qi.payload for qi in drained] == ["h", "y0", "y1"]
        assert qs.depth.current["a"] == 2

    def test_stats_merge_all_shards(self):
        qs = DistributedQueueSet(STAGES, K20C)
        qs.push("a", [1], producer_sm=0)
        qs.push("a", [2], producer_sm=5)
        stats = qs.stats()
        assert stats["a"].enqueued == 2
        assert stats["a"].bytes_moved == 32
        # The stage's peak depth, not the largest single shard's.
        assert stats["a"].peak_length == 2


class TestDistributedEndToEnd:
    def run_mode(self, mode):
        pipeline = toy_pipeline()
        device = GPUDevice(K20C)
        return MegakernelModel(queue_mode=mode).run(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            {"doubler": list(range(1, 60))},
        )

    def test_same_outputs_both_modes(self):
        shared = self.run_mode("shared")
        distributed = self.run_mode("distributed")
        assert sorted(shared.outputs) == sorted(distributed.outputs)
        assert sorted(shared.outputs) == toy_expected(range(1, 60))

    def test_distributed_mode_completes_deterministically(self):
        first = self.run_mode("distributed")
        second = self.run_mode("distributed")
        assert first.time_ms == second.time_ms


class TestQueueCostAccounting:
    """Pin the cost accounting the batch-drain path depends on.

    Coalesced drains pop a block's worth of same-stage items in one queue
    operation; these tests freeze the amortisation formula and what a
    push is charged, so batching can never silently change what a queue
    op costs.
    """

    def test_batch_pop_amortises_fixed_cost(self):
        qs = SharedQueueSet(STAGES, K20C)
        for index in range(6):
            qs.push("b", [index], None)
        batch, cost = qs.pop("b", 6, sm_id=0)
        assert len(batch) == 6
        # One op moving six items: fixed cost paid once, bytes per item.
        assert cost == queue_op_cost(K20C, STAGES["b"], 6, 0.0)
        assert cost < 6 * queue_op_cost(K20C, STAGES["b"], 1, 0.0)

    def test_drain_clears_depth_ledger(self):
        qs = SharedQueueSet(STAGES, K20C)
        for index in range(4):
            qs.push("a", [index], None)
        assert qs.depth.current["a"] == 4
        assert len(qs.drain("a")) == 4
        assert qs.depth.current["a"] == 0

    def test_distributed_push_sees_no_contention(self):
        # RunContext.push_cost is what a persistent block is charged for
        # its pushes: a per-SM shard sees only its own SM's blocks, the
        # shared queue every block on the device.
        pipeline = toy_pipeline()
        item_bytes = pipeline.stage("adder").item_bytes
        calm = queue_op_cost(K20C, item_bytes, 1, 0.0)
        costs = {}
        for mode in ("shared", "distributed"):
            ctx = RunContext(
                pipeline,
                GPUDevice(K20C),
                FunctionalExecutor(pipeline),
                queue_mode=mode,
            )
            ctx.queue_set.contention_level = 8.0
            costs[mode] = ctx.push_cost([("adder", 16)])
        assert costs["distributed"] == calm
        assert costs["shared"] == calm + K20C.queue_contention_cycles * 8.0
