"""RunContext: outstanding accounting, quiescence, fetch policies."""

import pytest

from repro.core import ExecutionError, FunctionalExecutor
from repro.core.errors import ConfigurationError
from repro.core.runcontext import RunContext
from repro.gpu import GPUDevice, K20C

from .conftest import toy_pipeline


@pytest.fixture
def ctx():
    pipeline = toy_pipeline()
    device = GPUDevice(K20C)
    return RunContext(pipeline, device, FunctionalExecutor(pipeline))


class TestOutstandingAccounting:
    def test_insert_initial_counts(self, ctx):
        ctx.insert_initial({"doubler": [1, 2, 3]})
        assert ctx.outstanding["doubler"] == 3
        assert ctx.total_outstanding == 3
        assert not ctx.done

    def test_insert_initial_charges_memcpy(self, ctx):
        ctx.insert_initial({"doubler": [1, 2, 3]})
        assert ctx.device.metrics.host_to_device_copies == 1

    def test_complete_decrements(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        ctx.complete_tasks("doubler", 1)
        assert ctx.done

    def test_over_completion_raises(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        with pytest.raises(ExecutionError):
            ctx.complete_tasks("doubler", 2)

    def test_children_keep_pipeline_alive(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        ctx.enqueue_children([("adder", 16)], producer_sm=0)
        ctx.complete_tasks("doubler", 1)
        assert not ctx.done
        assert ctx.outstanding["adder"] == 1


class TestQuiescence:
    def test_upstream_work_blocks_quiescence(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        # doubler can reach sink, so sink is not quiescent.
        assert not ctx.is_quiescent(["sink"])

    def test_downstream_work_does_not_block_upstream(self, ctx):
        ctx.insert_initial({"sink": [170]})
        # sink cannot reach doubler: doubler is quiescent.
        assert ctx.is_quiescent(["doubler"])
        assert not ctx.is_quiescent(["sink"])

    def test_empty_context_is_quiescent(self, ctx):
        assert ctx.is_quiescent(["doubler", "adder", "sink"])


class TestFetchAsync:
    def run_engine(self, ctx):
        ctx.device.engine.run()

    def test_immediate_delivery(self, ctx):
        ctx.insert_initial({"doubler": [1, 2, 3]})
        got = []
        ctx.fetch_async(("doubler",), lambda s: 2, got.append)
        self.run_engine(ctx)
        stage, items, cost = got[0]
        assert stage == "doubler"
        assert [qi.payload for qi in items] == [1, 2]
        assert cost > 0

    def test_quiescent_delivers_none(self, ctx):
        got = []
        ctx.fetch_async(("sink",), lambda s: 1, got.append)
        self.run_engine(ctx)
        assert got == [None]

    def test_parked_block_woken_by_enqueue(self, ctx):
        ctx.insert_initial({"doubler": [1]})  # keeps sink non-quiescent
        got = []
        ctx.fetch_async(("sink",), lambda s: 1, got.append)
        self.run_engine(ctx)
        assert got == []  # parked
        ctx.enqueue_children([("sink", 99)], producer_sm=None)
        self.run_engine(ctx)
        assert got and got[0][0] == "sink"

    def test_parked_block_released_on_quiescence(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        got = []
        ctx.fetch_async(("sink",), lambda s: 1, got.append)
        self.run_engine(ctx)
        ctx.complete_tasks("doubler", 1)  # no children -> sink quiescent
        self.run_engine(ctx)
        assert got == [None]

    def test_deepest_first_policy(self, ctx):
        ctx.insert_initial({"doubler": [1], "sink": [2]})
        got = []
        ctx.fetch_async(("doubler", "sink"), lambda s: 1, got.append)
        self.run_engine(ctx)
        assert got[0][0] == "sink"  # deeper stage wins

    def test_fifo_policy(self):
        pipeline = toy_pipeline()
        ctx = RunContext(
            pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline),
            policy="fifo",
        )
        ctx.insert_initial({"doubler": [1], "sink": [2]})
        got = []
        ctx.fetch_async(("doubler", "sink"), lambda s: 1, got.append)
        ctx.device.engine.run()
        assert got[0][0] == "doubler"

    def test_unknown_policy_rejected(self):
        pipeline = toy_pipeline()
        with pytest.raises(ConfigurationError):
            RunContext(
                pipeline,
                GPUDevice(K20C),
                FunctionalExecutor(pipeline),
                policy="bogus",
            )



class TestParkOrder:
    """Blocks parked on overlapping watch tuples are served and released
    in park order, whichever tuple each one watches."""

    def test_wake_and_release_follow_park_order(self, ctx):
        # Take doubler's one item: its queue is empty while the item is
        # outstanding, so nothing the blocks below watch is quiescent.
        ctx.insert_initial({"doubler": [1]})
        ctx.fetch_async(("doubler",), lambda s: 1, lambda r: None)
        ctx.device.engine.run()
        got = []
        for label, stages in [
            ("a1", ("doubler", "sink")),
            ("b1", ("sink",)),
            ("a2", ("doubler", "sink")),
            ("b2", ("sink",)),
            ("a3", ("doubler", "sink")),
            ("b3", ("sink",)),
        ]:
            ctx.fetch_async(
                stages,
                lambda s: 1,
                lambda r, label=label: got.append(
                    (label, r and [qi.payload for qi in r[1]])
                ),
            )
        ctx.device.engine.run()
        assert got == []  # all parked
        ctx.enqueue_children(
            [("sink", 10), ("sink", 11), ("sink", 12)], producer_sm=None
        )
        ctx.device.engine.run()
        assert got == [("a1", [10]), ("b1", [11]), ("a2", [12])]
        got.clear()
        ctx.complete_tasks("sink", 3)
        assert got == []
        ctx.complete_tasks("doubler", 1)  # both tuples quiescent at once
        ctx.device.engine.run()
        assert got == [("b2", None), ("a3", None), ("b3", None)]

class TestWaitForWork:
    def test_signals_existing_work(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        got = []
        ctx.wait_for_work(("doubler",), got.append)
        ctx.device.engine.run()
        assert got == [True]

    def test_signals_quiescence(self, ctx):
        got = []
        ctx.wait_for_work(("adder",), got.append)
        ctx.device.engine.run()
        assert got == [None]

    def test_parked_then_notified(self, ctx):
        ctx.insert_initial({"doubler": [1]})
        got = []
        ctx.wait_for_work(("adder",), got.append)
        ctx.device.engine.run()
        assert got == []
        ctx.enqueue_children([("adder", 5)], producer_sm=None)
        ctx.device.engine.run()
        assert got == [True]


class TestCostHelpers:
    def test_push_cost_groups_by_target(self, ctx):
        single = ctx.push_cost([("adder", 1)])
        double_same = ctx.push_cost([("adder", 1), ("adder", 2)])
        double_mixed = ctx.push_cost([("adder", 1), ("sink", 2)])
        assert single < double_same < double_mixed

    def test_empty_push_is_free(self, ctx):
        assert ctx.push_cost([]) == 0.0

    def test_backlog(self, ctx):
        ctx.insert_initial({"doubler": [1, 2], "adder": [3]})
        depth = ctx.depth_series
        assert depth.total(["doubler"]) == 2
        assert depth.total(["doubler", "adder"]) == 3
