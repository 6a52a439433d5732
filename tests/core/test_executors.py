"""Functional, recording, and replay executors."""

import pytest

from repro.core import (
    ExecutionError,
    FunctionalExecutor,
    RecordingExecutor,
    ReplayExecutor,
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
