"""Batched stage execution must be bit-identical to the scalar path.

Three layers of guarantees, each checked for all six workloads:

* **Trace level** — expanding the task graph with whole-drain batches
  produces byte-identical TaskCost streams, emit orders, child id
  assignments and output payloads (dtype, shape and every element) as a
  scalar walk that runs every item through ``run_task``.
* **Schedule level** — end-to-end simulated runs (baseline, megakernel
  and the tuned VersaPipe plan) report identical cycles, times and
  per-stage statistics with ``FunctionalExecutor.run_batch`` swapped for
  the base ``Executor.run_batch``, the per-item ``run_task`` loop.
* **Replay level** — the harness's compute-once/simulate-many trace
  cache returns the same :class:`RunResult` as a cold functional run for
  every model, and its content fingerprint invalidates whenever a
  parameter or the seed changes.
"""

import dataclasses
from collections import deque

import numpy as np
import pytest

from repro.core.executor import Executor, FunctionalExecutor, RecordingExecutor
from repro.harness import (
    TraceCache,
    run_workload_models,
    workload_fingerprint,
)
from repro.workloads.registry import all_workloads, get_workload

WORKLOADS = sorted(all_workloads())


def _payload_equal(a, b) -> bool:
    """Deep bit-level equality, including dtypes and dataclass fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if dataclasses.is_dataclass(a):
        return all(
            _payload_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            _payload_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


def _batched(executor, stage, items):
    return executor.run_batch(stage, items)


def _scalar(executor, stage, items):
    return [executor.run_task(stage, item) for item in items]


def _chunked(executor, stage, items):
    return [
        result
        for start in range(0, len(items), 3)
        for result in executor.run_batch(stage, items[start : start + 3])
    ]


def _record_trace(name: str, drain):
    """Breadth-first task-graph expansion; ``drain(executor, stage,
    items)`` runs each same-stage prefix of the frontier."""
    spec = get_workload(name)
    params = spec.quick_params()
    pipeline = spec.build_pipeline(params)
    executor = RecordingExecutor(pipeline, record_outputs=True)
    frontier = deque()
    for stage, payloads in spec.initial_items(params).items():
        for payload in payloads:
            frontier.append((stage, executor.wrap_initial(stage, payload)))
    while frontier:
        stage, item = frontier.popleft()
        batch = [item]
        while frontier and frontier[0][0] == stage:
            batch.append(frontier.popleft()[1])
        for result in drain(executor, stage, batch):
            frontier.extend(result.children)
    return executor.trace


@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_trace_bit_identical(name):
    scalar = _record_trace(name, _scalar)
    batched = _record_trace(name, _batched)
    assert len(scalar.nodes) == len(batched.nodes)
    for a, b in zip(scalar.nodes, batched.nodes):
        assert a.stage == b.stage, a.node_id
        assert a.cost == b.cost, a.node_id  # byte-identical TaskCost
        assert a.children == b.children, a.node_id  # emit order + ids
        assert a.n_outputs == b.n_outputs, a.node_id
    assert set(scalar.recorded_outputs) == set(batched.recorded_outputs)
    for node_id, outputs in scalar.recorded_outputs.items():
        others = batched.recorded_outputs[node_id]
        assert len(outputs) == len(others)
        for a, b in zip(outputs, others):
            assert _payload_equal(a, b), (name, node_id)


@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_chunking_matches_scalar(name):
    """Draining in 3-item slices chunks differently but must not change
    anything: grouping is order-preserving at every batch size."""
    scalar = _record_trace(name, _scalar)
    capped = _record_trace(name, _chunked)
    assert [n.cost for n in scalar.nodes] == [n.cost for n in capped.nodes]
    assert [n.children for n in scalar.nodes] == [
        n.children for n in capped.nodes
    ]


def _results_identical(a, b):
    assert a.time_ms == b.time_ms
    assert a.cycles == b.cycles
    assert len(a.outputs) == len(b.outputs)
    assert a.stage_stats == b.stage_stats
    metrics_a, metrics_b = a.device_metrics, b.device_metrics
    assert metrics_a.kernel_launches == metrics_b.kernel_launches
    assert metrics_a.blocks_launched == metrics_b.blocks_launched


@pytest.mark.parametrize("name", WORKLOADS)
def test_models_schedule_preserving(name, monkeypatch):
    """End to end: simulated results are independent of batching for
    every execution model of the Table 2 columns."""
    params = get_workload(name).quick_params()
    batched = run_workload_models(name, params=params, cache=None)
    monkeypatch.setattr(FunctionalExecutor, "run_batch", Executor.run_batch)
    scalar = run_workload_models(name, params=params, cache=None)
    for column in ("baseline", "megakernel", "versapipe"):
        _results_identical(scalar[column].result, batched[column].result)


class TestTraceReuse:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_matches_cold_run(self, name):
        params = get_workload(name).quick_params()
        cold = run_workload_models(name, params=params, cache=None)
        cache = TraceCache()
        warm = run_workload_models(name, params=params, cache=cache)
        for column in ("baseline", "megakernel", "versapipe"):
            _results_identical(cold[column].result, warm[column].result)
        # The first column records; every later one replays the trace.
        assert not warm["baseline"].replayed
        assert warm["megakernel"].replayed
        assert warm["versapipe"].replayed
        assert cache.misses == 1
        assert cache.mem_hits >= 2

    def test_fingerprint_stable_across_instances(self):
        spec = get_workload("pyramid")
        assert workload_fingerprint(
            spec, spec.quick_params()
        ) == workload_fingerprint(spec, spec.quick_params())

    def test_fingerprint_invalidates_on_param_change(self):
        spec = get_workload("pyramid")
        params = spec.quick_params()
        resized = dataclasses.replace(params, width=params.width + 2)
        assert workload_fingerprint(spec, params) != workload_fingerprint(
            spec, resized
        )

    def test_fingerprint_invalidates_on_seed_change(self):
        spec = get_workload("pyramid")
        params = spec.quick_params()
        reseeded = dataclasses.replace(params, seed=params.seed + 1)
        assert workload_fingerprint(spec, params) != workload_fingerprint(
            spec, reseeded
        )

    def test_fingerprint_distinguishes_workloads(self):
        pyramid = get_workload("pyramid")
        fd = get_workload("face_detection")
        assert workload_fingerprint(
            pyramid, pyramid.quick_params()
        ) != workload_fingerprint(fd, fd.quick_params())

    def test_seed_change_misses_the_cache(self):
        spec = get_workload("ldpc")
        params = spec.quick_params()
        cache = TraceCache()
        run_workload_models("ldpc", params=params, cache=cache)
        reseeded = dataclasses.replace(params, seed=params.seed + 1)
        misses_before = cache.misses
        run_workload_models("ldpc", params=reseeded, cache=cache)
        assert cache.misses == misses_before + 1  # fresh functional run
        assert len(cache) == 2  # both traces retained

    def test_lru_eviction_bounds_entries(self):
        cache = TraceCache(max_entries=1)
        spec = get_workload("ldpc")
        params = spec.quick_params()
        run_workload_models("ldpc", params=params, cache=cache)
        reseeded = dataclasses.replace(params, seed=params.seed + 1)
        run_workload_models("ldpc", params=reseeded, cache=cache)
        assert len(cache) == 1
        # The first trace was evicted: running it again must miss.
        misses_before = cache.misses
        run_workload_models("ldpc", params=params, cache=cache)
        assert cache.misses == misses_before + 1
