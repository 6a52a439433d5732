"""Parallel experiment harness: determinism, disk cache, per-run stats.

The contract under test (docs/harness.md): fanning the evaluation grid
across any number of worker processes — cold or warm, with or without the
on-disk trace cache — produces byte-identical simulated results to the
classic serial loop.
"""

import json
import os
import pickle

import pytest

from repro.harness.pool import (
    COLUMNS,
    CellTask,
    plan_suite,
    run_cells,
    run_suite,
    suite_bench_payload,
)
from repro.harness.runner import (
    aggregate_reports,
    run_versapipe,
    run_workload_models,
)
from repro.harness.tracecache import TraceCache, workload_fingerprint
from repro.store import FORMAT_VERSION, MAX_OPEN_STORES, open_store
from repro.workloads.registry import get_workload

WORKLOADS = ["ldpc", "reyes"]


def suite_json(result):
    return json.dumps(suite_bench_payload(result), sort_keys=True)


class TestPlan:
    def test_canonical_order(self):
        tasks = plan_suite(["b", "a"], devices=("K20c", "GTX1080"))
        assert tasks[0] == CellTask("b", "baseline", "K20c")
        assert [t.workload for t in tasks[:6]] == ["b"] * 6
        assert [t.column for t in tasks[:3]] == list(COLUMNS)
        assert tasks[3].device == "GTX1080"

    def test_default_plan_covers_all_workloads(self):
        tasks = plan_suite()
        assert len(tasks) == 6 * 3
        assert len({t.workload for t in tasks}) == 6


class TestDeterminism:
    """workers=N is byte-identical to workers=1 — the tentpole pin."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_suite_matches_serial(self, workers):
        serial = run_suite(workloads=WORKLOADS, workers=1, observe=True)
        parallel = run_suite(
            workloads=WORKLOADS, workers=workers, observe=True
        )
        assert suite_json(parallel) == suite_json(serial)

    def test_parallel_merged_reports_match_serial(self):
        # Two devices -> 12 observed cells, exercising the chunked
        # (fixed fan-in) report reduction tree beyond one chunk.
        devices = ("K20c", "GTX1080")
        serial = run_suite(
            workloads=WORKLOADS, devices=devices, workers=1, observe=True
        )
        parallel = run_suite(
            workloads=WORKLOADS, devices=devices, workers=4, observe=True
        )
        assert suite_json(parallel) == suite_json(serial)
        agg_serial = aggregate_reports(serial.cells).to_dict()
        agg_parallel = aggregate_reports(parallel.cells, workers=4).to_dict()
        assert json.dumps(agg_parallel, sort_keys=True) == json.dumps(
            agg_serial, sort_keys=True
        )

    def test_aggregate_histogram_percentiles_worker_invariant(self):
        """Property: the merged report's latency histograms — and the
        percentiles derived from them — are identical whichever worker
        count folded the per-cell reports, including the fan-in-8
        chunked reduction (12 observed cells > one chunk)."""
        devices = ("K20c", "GTX1080")
        suite = run_suite(
            workloads=WORKLOADS, devices=devices, workers=2, observe=True
        )
        observed = [
            cell for cell in suite.cells if cell.result.report is not None
        ]
        assert len(observed) > 8  # forces the chunk-tree path
        reference = aggregate_reports(suite.cells, workers=1).to_dict()
        for workers in (2, 3, 5):
            merged = aggregate_reports(suite.cells, workers=workers).to_dict()
            assert json.dumps(merged, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )
        # The percentile fields themselves must be populated, not just
        # vacuously equal empty histograms.
        latencies = reference["stage_latency"]
        assert latencies
        for hist in latencies.values():
            assert hist["count"] > 0
            assert hist["p50"] <= hist["p99"]

    def test_parallel_with_shared_disk_cache_matches_serial(self, tmp_path):
        serial = run_suite(workloads=WORKLOADS, workers=1, observe=True)
        cold = run_suite(
            workloads=WORKLOADS,
            workers=4,
            observe=True,
            cache_dir=str(tmp_path / "traces"),
        )
        warm = run_suite(
            workloads=WORKLOADS,
            workers=4,
            observe=True,
            cache_dir=str(tmp_path / "traces"),
        )
        assert suite_json(cold) == suite_json(serial)
        assert suite_json(warm) == suite_json(serial)
        # Where a warm hit lands (worker memory vs the shared disk
        # store) depends on which persistent worker serves the shard;
        # only the placement-agnostic totals are deterministic.
        assert warm.cache_stats.total_hits >= 1
        assert warm.cache_stats.misses == 0

    def test_warm_dispatch_stats_are_per_dispatch_deltas(self, tmp_path):
        """Reused workers must report each dispatch's counters, not their
        lifetime totals (which span every suite the process served)."""
        cache_dir = str(tmp_path / "traces")
        run_suite(workloads=WORKLOADS, workers=4, cache_dir=cache_dir)
        first = run_suite(workloads=WORKLOADS, workers=4, cache_dir=cache_dir)
        second = run_suite(
            workloads=WORKLOADS, workers=4, cache_dir=cache_dir
        )
        # Both warm suites replay the same plan, so their per-dispatch
        # hit totals are equal — under lifetime accounting the second
        # would double-count everything the workers served before it.
        assert first.cache_stats.misses == 0
        assert second.cache_stats.misses == 0
        assert first.cache_stats.total_hits == second.cache_stats.total_hits
        assert first.cache_stats.total_hits >= 1

    def test_run_workload_models_parallel_matches_serial(self, tmp_path):
        spec = get_workload("ldpc")
        params = spec.quick_params()
        serial = run_workload_models("ldpc", params=params, workers=1)
        cache = TraceCache(disk_dir=str(tmp_path / "traces"))
        parallel = run_workload_models(
            "ldpc", params=params, workers=4, cache=cache
        )
        # The workers shared the caller's directory, and the caller's
        # own cache carries this call's counter delta.
        assert cache.entry_count() == 1
        assert cache.last_run is not None
        assert cache.last_run.misses >= 1
        assert cache.last_run.stores == cache.last_run.misses
        for column in COLUMNS:
            a, b = serial[column], parallel[column]
            assert a.model == b.model
            assert a.time_ms == b.time_ms
            assert a.result.cycles == b.result.cycles
            assert a.result.device_metrics.kernel_launches == (
                b.result.device_metrics.kernel_launches
            )
            assert {
                name: (s.tasks, s.items_emitted, s.busy_cycles)
                for name, s in a.result.stage_stats.items()
            } == {
                name: (s.tasks, s.items_emitted, s.busy_cycles)
                for name, s in b.result.stage_stats.items()
            }

    def test_workers_zero_rejected(self):
        with pytest.raises(ValueError):
            run_cells(plan_suite(WORKLOADS), workers=0)
        with pytest.raises(ValueError):
            run_workload_models("ldpc", workers=0)

    def test_parallel_models_reject_functional_options(self):
        """The pool always records and replays; asking it for the
        functional reference path is an error, not a silent no-op."""
        with pytest.raises(ValueError):
            run_workload_models("ldpc", workers=2, cache=None)
        with pytest.raises(ValueError):
            run_workload_models("ldpc", workers=2, batch_size=1)


def _k20c():
    from repro.gpu.specs import K20C

    return K20C


class TestDiskCache:
    def _fingerprint(self, name="ldpc"):
        spec = get_workload(name)
        return spec, workload_fingerprint(spec, spec.quick_params())

    def test_roundtrip_and_entry_count(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        spec = get_workload("ldpc")
        params = spec.quick_params()
        run_versapipe(spec, _k20c(), params, cache=cache)
        assert cache.stores == 1
        assert cache.entry_count() == 1
        # A fresh process-equivalent: new cache over the same directory.
        fresh = TraceCache(disk_dir=str(tmp_path))
        key = workload_fingerprint(spec, params)
        assert fresh.get(key) is not None
        assert fresh.disk_hits == 1 and fresh.misses == 0
        # Now resident in memory too.
        assert fresh.get(key) is not None
        assert fresh.mem_hits == 1

    def test_corrupted_entry_recomputes_cleanly(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        spec = get_workload("ldpc")
        params = spec.quick_params()
        baseline = run_versapipe(spec, _k20c(), params, cache=cache)
        key = workload_fingerprint(spec, params)
        path = cache.path_for(key)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle at all")
        fresh = TraceCache(disk_dir=str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.misses == 1 and fresh.disk_hits == 0
        again = run_versapipe(spec, _k20c(), params, cache=fresh)
        assert again.time_ms == baseline.time_ms
        assert again.result.cycles == baseline.result.cycles
        # The recompute overwrote the corrupt entry with a good one.
        assert TraceCache(disk_dir=str(tmp_path)).get(key) is not None

    def test_stale_schema_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        spec = get_workload("ldpc")
        params = spec.quick_params()
        run_versapipe(spec, _k20c(), params, cache=cache)
        key = workload_fingerprint(spec, params)
        path = cache.path_for(key)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["schema"] = -1
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        fresh = TraceCache(disk_dir=str(tmp_path))
        assert fresh.get(key) is None

    def test_stale_format_entry_is_a_miss(self, tmp_path):
        spec, key = self._fingerprint()
        cache = TraceCache(disk_dir=str(tmp_path))
        run_versapipe(spec, _k20c(), spec.quick_params(), cache=cache)
        with open(cache.path_for(key), "rb") as fh:
            payload = pickle.load(fh)
        assert payload["format"] == FORMAT_VERSION
        payload["format"] = FORMAT_VERSION + 1
        with open(cache.path_for(key), "wb") as fh:
            pickle.dump(payload, fh)
        assert TraceCache(disk_dir=str(tmp_path)).get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        spec, key = self._fingerprint()
        cache = TraceCache(disk_dir=str(tmp_path))
        run_versapipe(spec, _k20c(), spec.quick_params(), cache=cache)
        other = "ff" + key[2:]
        os.makedirs(os.path.dirname(cache.path_for(other)), exist_ok=True)
        os.replace(cache.path_for(key), cache.path_for(other))
        assert TraceCache(disk_dir=str(tmp_path)).get(other) is None

    def test_memory_clear_keeps_disk(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        spec = get_workload("ldpc")
        run_versapipe(spec, _k20c(), spec.quick_params(), cache=cache)
        cache.clear()
        assert len(cache) == 0 and cache.mem_hits == 0
        assert cache.entry_count() == 1


class TestOneRecordingOrder:
    """The harness and the tuner share traces under one key, so they
    must record them in one node order: a tune may not depend on
    whether a harness run filled the cache first."""

    @pytest.mark.parametrize("name", ["face_detection", "pyramid"])
    def test_tune_after_harness_equals_fresh_tune(self, name):
        from repro.core.tuner.cache import trace_fingerprint
        from repro.core.tuner.offline import TunerOptions
        from repro.harness.runner import tune_workload

        params = get_workload(name).quick_params()
        options = TunerOptions(max_configs=24, workers=1)
        fresh = tune_workload(
            name, _k20c(), params, options=options, cache=TraceCache()
        )
        cache = TraceCache()
        run_workload_models(name, _k20c(), params=params, cache=cache)
        warm = tune_workload(
            name, _k20c(), params, options=options, cache=cache
        )
        assert cache.stats().misses == 1  # the tune replayed, not recorded
        assert trace_fingerprint(warm.trace) == trace_fingerprint(fresh.trace)
        assert json.dumps(
            warm.report.canonical_payload(), sort_keys=True
        ) == json.dumps(fresh.report.canonical_payload(), sort_keys=True)


class TestPerRunStats:
    """Satellite: stats report per-run deltas, not process-lifetime totals."""

    def test_last_run_is_a_delta(self):
        cache = TraceCache()
        spec = get_workload("ldpc")
        params = spec.quick_params()
        run_versapipe(spec, _k20c(), params, cache=cache)
        first = cache.last_run
        assert first.misses == 1  # the recording run
        run_versapipe(spec, _k20c(), params, cache=cache)
        second = cache.last_run
        # The second call replays everything: no misses leak over from
        # the first call's counters.
        assert second.misses == 0
        assert second.mem_hits >= 1
        assert cache.misses == 1  # lifetime totals still accumulate

    def test_run_workload_models_sets_last_run(self):
        cache = TraceCache()
        run_workload_models("ldpc", cache=cache)
        assert cache.last_run is not None
        assert cache.last_run.misses == 1
        run_workload_models("ldpc", cache=cache)
        assert cache.last_run.misses == 0
        assert cache.last_run.mem_hits >= 1


class TestProcessCacheRegistry:
    """The process-wide trace stores reused workers replay from."""

    def test_same_directory_same_cache(self, tmp_path):
        target = str(tmp_path / "traces")
        assert open_store("traces", target) is open_store("traces", target)
        # Path spelling doesn't split the cache.
        alias = str(tmp_path / "." / "traces")
        assert open_store("traces", alias) is open_store("traces", target)

    def test_distinct_directories_distinct_caches(self, tmp_path):
        a = open_store("traces", str(tmp_path / "a"))
        b = open_store("traces", str(tmp_path / "b"))
        assert a is not b
        assert a.root is not None and b.root is not None

    def test_registry_is_bounded_lru(self, tmp_path):
        first = open_store("traces", str(tmp_path / "dir0"))
        for index in range(1, MAX_OPEN_STORES + 1):
            open_store("traces", str(tmp_path / f"dir{index}"))
        # dir0 was the least recently used entry and fell out; asking
        # again builds a fresh store (empty counters, empty LRU).
        assert open_store("traces", str(tmp_path / "dir0")) is not first
