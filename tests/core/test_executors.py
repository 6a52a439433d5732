"""Functional, recording, and replay executors."""

import pytest

from repro.core import (
    OUTPUT,
    ExecutionError,
    FunctionalExecutor,
    Pipeline,
    RecordingExecutor,
    ReplayExecutor,
    Stage,
    TaskCost,
)
from repro.core.tuner.profiler import profile_pipeline, replay_placeholders

from .conftest import toy_pipeline


def expand_fully(executor, initial):
    """BFS the task graph through an executor, returning sink outputs."""
    outputs = []
    frontier = []
    for stage, payloads in initial.items():
        for payload in payloads:
            frontier.append((stage, executor.wrap_initial(stage, payload)))
    while frontier:
        stage, item = frontier.pop(0)
        result = executor.run_task(stage, item)
        outputs.extend(result.outputs)
        frontier.extend(result.children)
    return outputs


class TestFunctionalExecutor:
    def test_runs_real_code(self, pipeline):
        executor = FunctionalExecutor(pipeline)
        result = executor.run_task("doubler", 8)
        assert result.children == [("adder", 16)]
        assert result.cost.cycles_per_thread == 500.0

    def test_full_expansion_produces_outputs(
        self, pipeline, initial_items, expected_outputs
    ):
        outputs = expand_fully(FunctionalExecutor(pipeline), initial_items)
        assert sorted(outputs) == expected_outputs


_COST = TaskCost(100.0)


class _ScriptedStage(Stage):
    """Outputs every item; its batch costs and its cost() are scripted."""

    name = "scripted"
    emits_to = (OUTPUT,)

    def __init__(self, batch_costs=None, cost=_COST):
        super().__init__()
        self._batch_costs = batch_costs
        self._cost = cost
        #: The items of each execute_batch call, in call order.
        self.batches = []

    def execute(self, item, ctx):
        ctx.emit_output(item)

    def cost(self, item):
        return self._cost

    def execute_batch(self, items, ctxs):
        self.batches.append(list(items))
        for item, ctx in zip(items, ctxs):
            self.execute(item, ctx)
        if self._batch_costs is None:
            return [self.cost(item) for item in items]
        return self._batch_costs(items)


class TestRunBatchContract:
    """What FunctionalExecutor.run_batch promises about execute_batch."""

    def _run(self, stage, items):
        executor = FunctionalExecutor(Pipeline([stage], name="scripted"))
        return executor.run_batch("scripted", items)

    def test_drain_reaches_execute_batch_in_one_call(self):
        stage = _ScriptedStage()
        results = self._run(stage, list(range(7)))
        assert stage.batches == [list(range(7))]
        assert [result.outputs for result in results] == [
            [item] for item in range(7)
        ]
        assert all(result.cost is _COST for result in results)

    def test_one_item_drain_skips_execute_batch(self):
        stage = _ScriptedStage()
        [result] = self._run(stage, [7])
        assert stage.batches == []
        assert result.outputs == [7]

    def test_too_few_costs_raise(self):
        stage = _ScriptedStage(
            batch_costs=lambda items: [TaskCost(1.0)] * (len(items) - 1)
        )
        with pytest.raises(
            ExecutionError,
            match=r"2 costs from execute_batch\(\) for a batch of 3",
        ):
            self._run(stage, [1, 2, 3])

    def test_non_taskcost_from_execute_batch_raises(self):
        shared = TaskCost(1.0)
        stage = _ScriptedStage(batch_costs=lambda items: [shared, shared, 5.0])
        with pytest.raises(
            ExecutionError, match=r"float from execute_batch\(\); expected"
        ):
            self._run(stage, [1, 2, 3])

    def test_non_taskcost_from_cost_raises_on_one_item(self):
        stage = _ScriptedStage(cost=100.0)
        with pytest.raises(
            ExecutionError, match=r"float from cost\(\); expected"
        ):
            self._run(stage, [1])


class TestRecordingExecutor:
    def test_trace_structure(self, pipeline, initial_items):
        executor = RecordingExecutor(pipeline)
        expand_fully(executor, initial_items)
        trace = executor.trace
        counts = trace.tasks_per_stage()
        # 39 inputs, each eventually visits adder and sink exactly once.
        assert counts["adder"] == 39
        assert counts["sink"] == 39
        assert counts["doubler"] > 39  # recursion adds tasks
        assert len(trace.initial["doubler"]) == 39

    def test_trace_children_link_correct_stages(self, pipeline, initial_items):
        executor = RecordingExecutor(pipeline)
        expand_fully(executor, initial_items)
        trace = executor.trace
        for node in trace.nodes:
            for child_id in node.children:
                child = trace.nodes[child_id]
                assert child.stage in pipeline.stage(node.stage).emits_to


class TestReplayExecutor:
    def test_replay_matches_recorded_costs(self, pipeline, initial_items):
        recorder = RecordingExecutor(pipeline)
        expand_fully(recorder, initial_items)
        trace = recorder.trace

        replay = ReplayExecutor(toy_pipeline(), trace)
        outputs = expand_fully(replay, replay_placeholders(trace))
        # One placeholder output per recorded sink emission.
        assert len(outputs) == 39

    def test_replay_stage_mismatch_raises(self, pipeline, initial_items):
        recorder = RecordingExecutor(pipeline)
        expand_fully(recorder, initial_items)
        replay = ReplayExecutor(pipeline, recorder.trace)
        node = recorder.trace.initial["doubler"][0]
        with pytest.raises(ExecutionError, match="mismatch"):
            replay.run_task("sink", node)

    def test_replay_exhausted_initials_raises(self, pipeline, initial_items):
        recorder = RecordingExecutor(pipeline)
        expand_fully(recorder, initial_items)
        replay = ReplayExecutor(pipeline, recorder.trace)
        for _ in range(39):
            replay.wrap_initial("doubler", None)
        with pytest.raises(ExecutionError, match="no recorded initial"):
            replay.wrap_initial("doubler", None)

    @pytest.mark.parametrize("model", ["megakernel", "rtc", "kbk"])
    def test_on_task_reports_each_node_once(
        self, pipeline, initial_items, model
    ):
        """Batched fetches, inline subtrees and KBK waves all hand tasks
        out through run_task, so every replayed node reaches
        ``on_task`` exactly once, with its recorded cost."""
        from repro.core.models import KBKModel, MegakernelModel, RTCModel
        from repro.gpu import GPUDevice
        from repro.gpu.specs import K20C

        recorder = RecordingExecutor(pipeline)
        expand_fully(recorder, initial_items)
        trace = recorder.trace
        seen = []
        replay = ReplayExecutor(
            pipeline,
            trace,
            on_task=lambda stage, cost: seen.append((stage, cost)),
        )
        runner = {
            "megakernel": MegakernelModel,
            "rtc": RTCModel,
            "kbk": KBKModel,
        }[model]()
        runner.run(
            pipeline, GPUDevice(K20C), replay, replay_placeholders(trace)
        )
        key = lambda pair: (pair[0], pair[1].cycles_per_thread)  # noqa: E731
        assert sorted(seen, key=key) == sorted(
            ((node.stage, node.cost) for node in trace.nodes), key=key
        )


class TestInlineExecution:
    def test_inline_consumes_whole_subtree(self, pipeline):
        executor = FunctionalExecutor(pipeline)
        result = executor.run_inline(
            "doubler", 1, frozenset(pipeline.stage_names)
        )
        # 1 -> 2 -> 4 -> 8 -> 16 (4 doubler tasks), then adder, then sink.
        stages = [t.stage for t in result.tasks]
        assert stages.count("doubler") == 4
        assert stages.count("adder") == 1
        assert stages.count("sink") == 1
        assert result.children == []
        assert result.outputs == [170]

    def test_inline_partial_set_escapes(self, pipeline):
        executor = FunctionalExecutor(pipeline)
        result = executor.run_inline("doubler", 1, frozenset({"doubler"}))
        assert result.children == [("adder", 16)]
        assert result.outputs == []

    def test_inline_total_cycles(self, pipeline):
        executor = FunctionalExecutor(pipeline)
        result = executor.run_inline(
            "doubler", 8, frozenset(pipeline.stage_names)
        )
        assert result.total_cycles == 500.0 + 900.0 + 300.0


class TestProfiler:
    def test_profile_counts_and_occupancy(self, pipeline, initial_items):
        from repro.gpu.specs import K20C

        profile, trace = profile_pipeline(pipeline, K20C, initial_items)
        assert profile.total_tasks == trace.num_tasks
        assert profile.stages["adder"].tasks == 39
        # adder: 120 regs * 256 threads -> 2 blocks/SM on K20C.
        assert profile.stages["adder"].max_blocks_per_sm == 2
        assert profile.stages["sink"].max_blocks_per_sm == 6

    def test_weights_reflect_total_work(self, pipeline, initial_items):
        from repro.gpu.specs import K20C

        profile, _trace = profile_pipeline(pipeline, K20C, initial_items)
        weights = profile.weights()
        assert weights["adder"] == pytest.approx(39 * 900.0)
        assert weights["sink"] == pytest.approx(39 * 300.0)
