"""Trace data structure: stats, node access, replay placeholders."""

from repro.core.stage import TaskCost
from repro.core.trace import Trace, TraceNode
from repro.core.tuner.profiler import replay_placeholders


def make_trace():
    trace = Trace()
    trace.nodes = [
        TraceNode(0, "a", TaskCost(100.0), (1, 2), 0),
        TraceNode(1, "b", TaskCost(200.0), (), 1),
        TraceNode(2, "b", TaskCost(300.0), (), 1),
    ]
    trace.initial = {"a": [0]}
    return trace


class TestTraceStats:
    def test_num_tasks(self):
        assert make_trace().num_tasks == 3

    def test_tasks_per_stage(self):
        assert make_trace().tasks_per_stage() == {"a": 1, "b": 2}

    def test_work_per_stage(self):
        work = make_trace().work_per_stage()
        assert work["a"] == 100.0
        assert work["b"] == 500.0

    def test_mean_cost(self):
        trace = make_trace()
        assert trace.mean_cost("b") == 250.0
        assert trace.mean_cost("missing") == 0.0

    def test_node_lookup(self):
        trace = make_trace()
        assert trace.node(1).stage == "b"
        assert trace.node(0).children == (1, 2)


class TestReplayPlaceholders:
    def test_multiplicity_matches_initials(self):
        trace = make_trace()
        trace.initial = {"a": [0], "b": [1, 2]}
        placeholders = replay_placeholders(trace)
        assert len(placeholders["a"]) == 1
        assert len(placeholders["b"]) == 2
        assert all(p is None for p in placeholders["b"])
