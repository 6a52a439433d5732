"""Parallel experiment harness: determinism, one recording per workload
and one simulated run per cell, disk cache, per-run stats.

The contract under test (docs/harness.md): fanning the evaluation grid
across any number of worker processes — cold or warm, with or without the
on-disk trace cache — produces byte-identical simulated results to the
classic serial loop.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.harness.pool import (
    COLUMNS,
    CellTask,
    SuiteResult,
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
from repro.store import FORMAT_VERSION, MAX_OPEN_STORES, StoreStats, open_store
from repro.workloads import (
    cfd,
    face_detection,
    ldpc,
    pyramid,
    rasterization,
    reyes,
)
from repro.workloads.registry import all_workloads, get_workload

WORKLOADS = ["ldpc", "reyes"]

#: All six workloads at a few times their quick sizes.
SUITE_PARAMS = {
    "cfd": cfd.CFDParams(
        num_chunks=12, chunk_cells=256, outer_iterations=12,
        inner_iterations=3, seed=11,
    ),
    "face_detection": face_detection.FaceDetectionParams(
        num_images=6, width=320, height=240, min_height=60, band_rows=4,
        faces_per_image=3, seed=50,
    ),
    "ldpc": ldpc.LDPCParams(
        n_bits=128, check_degree=6, var_degree=3, num_frames=24,
        iterations=10, snr_db=4.5, seed=5,
    ),
    "pyramid": pyramid.PyramidParams(
        num_images=12, width=320, height=240, min_height=24, seed=2017,
    ),
    "rasterization": rasterization.RasterParams(
        width=256, height=192, num_cubes=30, band_rows=64, seed=23,
    ),
    "reyes": reyes.ReyesParams(
        width=320, height=240, num_base_patches=24, split_threshold=48.0,
        grid=8, max_split_depth=14, seed=7,
    ),
}


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
        """The aggregate of the observed cells' reports is byte-identical
        for any worker count: cells come back in plan order, and the
        reports fold left to right in that order."""
        devices = ("K20c", "GTX1080")
        serial = run_suite(
            workloads=WORKLOADS, devices=devices, workers=1, observe=True
        )
        parallel = run_suite(
            workloads=WORKLOADS, devices=devices, workers=4, observe=True
        )
        assert suite_json(parallel) == suite_json(serial)
        agg_serial = aggregate_reports(serial.cells).to_dict()
        agg_parallel = aggregate_reports(parallel.cells).to_dict()
        assert json.dumps(agg_parallel, sort_keys=True) == json.dumps(
            agg_serial, sort_keys=True
        )
        # Every observed cell is folded in (two devices: 12 cells), and
        # the percentile fields are populated, not vacuously equal empty
        # histograms.
        assert agg_serial["runs"] == 12
        latencies = agg_serial["stage_latency"]
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

    def test_six_workload_suite_pinned_cold_warm_and_parallel(self, tmp_path):
        """The 36-cell two-device suite of all six workloads: cold at
        ``workers=1`` records each trace once, warm at ``workers=1``
        and at ``workers=4`` replay everything, all three simulate the
        same bytes, and the simulated total is pinned exactly."""
        cache_dir = str(tmp_path / "traces")
        cold, *warm = [
            run_suite(
                devices=("K20c", "GTX1080"),
                workers=workers,
                cache_dir=cache_dir,
                params=SUITE_PARAMS,
            )
            for workers in (1, 1, 4)
        ]
        assert len(cold.cells) == 36
        assert sum(c.time_ms for c in cold.cells) == 89.57003317468863
        assert cold.cache_stats.stores == len(SUITE_PARAMS)
        for leg in warm:
            assert leg.cache_stats.misses == 0
            assert leg.cache_stats.total_hits >= 1
            assert suite_json(leg) == suite_json(cold)

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

    def test_workers_zero_rejected(self):
        with pytest.raises(ValueError):
            run_cells(plan_suite(WORKLOADS), workers=0)


def _k20c():
    from repro.gpu.specs import K20C

    return K20C


def _entry(cell, column):
    """``cell``'s entry in :func:`suite_bench_payload`."""
    suite = SuiteResult(
        tasks=[CellTask(cell.workload, column, cell.device)],
        cells=[cell],
        workers=1,
        cache_stats=StoreStats(),
        wall_s=0.0,
    )
    return suite_bench_payload(suite)[cell.workload][cell.device][column]


class TestOncePerSuite:
    """Each plan is simulated once and each trace recorded once per suite:
    the VersaPipe cell reuses its row's Megakernel cell, and the pool
    runs one shard per workload."""

    @pytest.mark.parametrize("name", sorted(all_workloads()))
    @pytest.mark.parametrize("device", ["K20c", "GTX1080"])
    def test_megakernel_candidate_is_the_megakernel_column(self, name, device):
        """The premise of the reuse: the all-SM megakernel grouping with
        online adaptation simulates exactly what ``MegakernelModel``
        does, and the adapter never acts on its one group."""
        from repro.core.config import GroupConfig, PipelineConfig
        from repro.core.models import HybridModel, MegakernelModel
        from repro.gpu.specs import get_spec
        from repro.harness.runner import run_cell

        spec = get_workload(name)
        gpu = get_spec(device)
        params = spec.quick_params()
        config = PipelineConfig(
            groups=(
                GroupConfig(
                    stages=tuple(spec.build_pipeline(params).stage_names),
                    model="megakernel",
                    sm_ids=tuple(range(gpu.num_sms)),
                ),
            ),
            online_adaptation=True,
        )
        cache = TraceCache()
        plain = run_cell(
            spec, MegakernelModel(), gpu, params, observe=True, cache=cache
        )
        hybrid = run_cell(
            spec, HybridModel(config), gpu, params, label="versapipe",
            observe=True, cache=cache,
        )
        assert cache.stats().misses == 1  # both replayed one recording
        assert hybrid.result.extras["online_adaptations"] == 0
        assert dataclasses.replace(
            hybrid.result.extras["config"], online_adaptation=False
        ) == plain.result.extras["config"]
        a, b = plain.result, hybrid.result
        assert [id(o) for o in a.outputs] == [id(o) for o in b.outputs]
        assert a.device_metrics == b.device_metrics
        assert a.queue_stats == b.queue_stats
        assert a.config_description == b.config_description
        entry_a = _entry(plain, "megakernel")
        entry_b = _entry(hybrid, "versapipe")
        assert entry_a.pop("model") == "megakernel"
        assert entry_b.pop("model") == "versapipe"
        assert entry_a == entry_b
        report_a, report_b = a.report.to_dict(), b.report.to_dict()
        assert report_a.pop("label") == f"{name}/megakernel/{device}"
        assert report_b.pop("label") == f"{name}/versapipe/{device}"
        assert report_a == report_b

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cold_suite_records_each_trace_once(self, workers):
        suite = run_suite(
            workloads=WORKLOADS, devices=("K20c", "GTX1080"), workers=workers
        )
        assert suite.cache_stats.misses == len(WORKLOADS)

    def test_one_simulated_run_per_cell(self, monkeypatch):
        from repro.harness import runner

        runs = []
        execute_model = runner.execute_model

        def counted(spec, pipeline, model, *args, **kwargs):
            runs.append((spec.name, type(model).__name__))
            return execute_model(spec, pipeline, model, *args, **kwargs)

        monkeypatch.setattr(runner, "execute_model", counted)
        suite = run_suite(
            workloads=WORKLOADS, devices=("K20c", "GTX1080"), workers=1
        )
        assert len(suite.cells) == 12
        assert len(runs) == 12, runs

    def test_observed_shard_cells_pickle(self):
        """An observer does not pickle, and ``map_shards`` runs a
        dispatch whose results cannot cross the process boundary
        in-process, silently.  So the shard runner leaves every cell's
        observer behind, the VersaPipe copy of a winning Megakernel cell
        (Pyramid) included, and keeps the reports."""
        from repro.harness.pool import _run_cell_shard, _SuitePayload

        shard = _run_cell_shard(
            _SuitePayload(observe=True), plan_suite(["pyramid"])
        )
        assert [cell.observer for cell in shard.cells] == [None] * 3
        assert all(cell.result.report for cell in shard.cells)
        pickle.dumps(shard)

    @pytest.mark.parametrize(
        "name, megakernel_wins", [("pyramid", True), ("reyes", False)]
    )
    def test_versapipe_reusing_megakernel_cell_is_exact(
        self, name, megakernel_wins
    ):
        from repro.core.models import MegakernelModel
        from repro.harness.runner import run_cell

        spec = get_workload(name)
        params = spec.quick_params()
        cache = TraceCache()
        own = run_versapipe(spec, _k20c(), params, observe=True, cache=cache)
        megakernel = run_cell(
            spec, MegakernelModel(), _k20c(), params, observe=True, cache=cache
        )
        untouched = (megakernel.model, megakernel.result.report.to_dict())
        reused = run_versapipe(
            spec, _k20c(), params, observe=True, cache=cache,
            megakernel=megakernel,
        )
        assert (reused.time_ms == megakernel.time_ms) is megakernel_wins
        assert reused.result is not megakernel.result
        assert _entry(reused, "versapipe") == _entry(own, "versapipe")
        assert reused.result.report.to_dict() == own.result.report.to_dict()
        assert reused.result.report.label == f"{name}/versapipe/K20c"
        assert (megakernel.model, megakernel.result.report.to_dict()) == (
            untouched
        )


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
