"""Persistent profile cache: hits, misses, invalidation, fingerprints."""

import dataclasses
import math

from repro import store as store_mod
from repro.core.tuner.cache import (
    CachedEvaluation,
    config_fingerprint,
    eval_key,
    lookup,
    pipeline_fingerprint,
    space_key,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.core.tuner.offline import OfflineTuner, TunerOptions
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C, get_spec
from repro.store import Store

from .conftest import toy_pipeline


def _tuner(cache_dir, workers=1, budget=25):
    pipe = toy_pipeline()
    initial = {"doubler": list(range(1, 200))}
    profile, trace = profile_pipeline(pipe, K20C, initial)
    return OfflineTuner(
        pipe,
        K20C,
        trace,
        profile=profile,
        options=TunerOptions(
            max_configs=budget, workers=workers, cache_dir=str(cache_dir)
        ),
    )


class TestSearchWithCache:
    def test_cold_then_warm(self, tmp_path):
        cold = _tuner(tmp_path / "c").tune()
        assert cold.cache_hits == 0
        # Only candidates the bound skips at run time bypass the cache,
        # and each of those is dominated in the canonical report too
        # (the run-time deadline is never below the final one).
        assert cold.cache_misses >= cold.num_evaluated - cold.num_dominated
        assert cold.cache_stats.stores == cold.cache_misses

        # Cached searches pin deadlines to the deterministic shard-local
        # schedule, so a warm rerun looks up exactly the cells the cold
        # run stored and misses nothing.
        warm = _tuner(tmp_path / "c").tune()
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert all(
            e.cached for e in warm.evaluated if e.outcome == "completed"
        )
        assert warm.best_config == cold.best_config
        assert warm.best_time_ms == cold.best_time_ms
        assert warm.canonical_payload() == cold.canonical_payload()

    def test_cache_disabled_reports_zero_traffic(self, tmp_path):
        pipe = toy_pipeline()
        profile, trace = profile_pipeline(
            pipe, K20C, {"doubler": list(range(1, 100))}
        )
        report = OfflineTuner(
            pipe, K20C, trace, profile=profile,
            options=TunerOptions(max_configs=10),
        ).tune()
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert not any(e.cached for e in report.evaluated)

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        first = _tuner(tmp_path / "c").tune()
        assert first.cache_misses > 0
        evals = store_mod.NAMESPACES["evals"]
        monkeypatch.setitem(
            store_mod.NAMESPACES,
            "evals",
            dataclasses.replace(evals, schema=evals.schema + 1),
        )
        rerun = _tuner(tmp_path / "c").tune()
        assert rerun.cache_hits == 0  # every old entry misses cleanly
        assert rerun.best_config == first.best_config

    def test_different_workload_different_space(self, tmp_path):
        """A changed trace must land in a different search space."""
        pipe = toy_pipeline()
        _, trace_a = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        _, trace_b = profile_pipeline(pipe, K20C, {"doubler": [4, 5, 6]})
        assert space_key(pipe, K20C, trace_a) != space_key(
            pipe, K20C, trace_b
        )


class TestCacheSemantics:
    def _cache(self, tmp_path):
        pipe = toy_pipeline()
        _, trace = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        tuner_opts = TunerOptions(max_configs=1)
        config = OfflineTuner(
            pipe, K20C, trace, options=tuner_opts
        ).candidates()[0]
        key = eval_key(space_key(pipe, K20C, trace), config)
        return Store("evals", str(tmp_path)), key

    def test_roundtrip_completed(self, tmp_path):
        cache, key = self._cache(tmp_path)
        assert lookup(cache, key) is None
        cache.put(
            key, CachedEvaluation(status="completed", time_ms=1.25).to_payload()
        )
        entry = lookup(cache, key)
        assert entry is not None
        assert entry.status == "completed" and entry.time_ms == 1.25

    def test_timeout_entry_deadline_semantics(self, tmp_path):
        cache, key = self._cache(tmp_path)
        cache.put(
            key,
            CachedEvaluation(status="timeout", exceeded_cycles=100.0).to_payload(),
        )
        # Stricter (or equal) deadline: the run would provably time out
        # again, so the entry is a hit.
        hit = lookup(cache, key, deadline_cycles=50.0)
        assert hit is not None and hit.status == "timeout"
        assert lookup(cache, key, deadline_cycles=100.0) is not None
        # Looser deadline: the run might finish now; must re-evaluate.
        assert lookup(cache, key, deadline_cycles=200.0) is None
        assert lookup(cache, key, deadline_cycles=math.inf) is None

    def test_unusable_memory_entry_falls_through_to_disk(self, tmp_path):
        """A concurrent worker may have overwritten a timed-out cell
        with a completed outcome; the stale memory entry must not hide
        it from a lookup under a looser deadline."""
        cache, key = self._cache(tmp_path)
        cache.put(
            key,
            CachedEvaluation(status="timeout", exceeded_cycles=100.0).to_payload(),
        )
        other_worker = Store("evals", str(tmp_path))
        other_worker.put(
            key,
            CachedEvaluation(
                status="completed", time_ms=2.0, cycles=150.0
            ).to_payload(),
        )
        entry = lookup(cache, key, deadline_cycles=200.0)
        assert entry is not None and entry.status == "completed"
        assert cache.stats().disk_hits == 1 and cache.stats().mem_hits == 0
        # The loaded outcome replaced the stale one in memory.
        assert lookup(cache, key, deadline_cycles=200.0) == entry
        assert cache.stats().mem_hits == 1

    def test_invalid_entry_always_hits(self, tmp_path):
        cache, key = self._cache(tmp_path)
        cache.put(
            key,
            CachedEvaluation(status="invalid", note="invalid: nope").to_payload(),
        )
        entry = lookup(cache, key, deadline_cycles=1.0)
        assert entry is not None and entry.status == "invalid"

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache, key = self._cache(tmp_path)
        cache.put(
            key, CachedEvaluation(status="completed", time_ms=2.0).to_payload()
        )
        with open(cache.path_for(key), "w", encoding="utf-8") as fh:
            fh.write("{not json")
        # The in-process memory layer still remembers the good entry ...
        assert lookup(cache, key) is not None
        # ... but a fresh cache object (a new process) must treat the
        # corrupt file as a clean miss.
        fresh, _ = self._cache(tmp_path)
        assert lookup(fresh, key) is None

    def test_unknown_status_is_a_miss(self, tmp_path):
        cache, key = self._cache(tmp_path)
        cache.put(key, {"status": "quantum"})
        assert lookup(cache, key) is None
        fresh, _ = self._cache(tmp_path)
        assert lookup(fresh, key) is None

    def test_entry_count_and_clear(self, tmp_path):
        cache, key = self._cache(tmp_path)
        assert cache.entry_count() == 0
        cache.put(
            key, CachedEvaluation(status="completed", time_ms=1.0).to_payload()
        )
        assert cache.entry_count() == 1
        # Clearing drops the memory layer only: the cell reloads from disk.
        cache.clear()
        assert len(cache) == 0
        assert lookup(cache, key) is not None
        assert cache.stats().disk_hits == 1


class TestFingerprints:
    def test_config_fingerprint_distinguishes(self):
        pipe = toy_pipeline()
        configs = OfflineTuner(
            pipe, K20C,
            profile_pipeline(pipe, K20C, {"doubler": [1]})[1],
            options=TunerOptions(max_configs=10),
        ).candidates()
        keys = {config_fingerprint(c) for c in configs}
        assert len(keys) == len(configs)

    def test_spec_fingerprint_distinguishes_devices(self):
        assert spec_fingerprint(K20C) != spec_fingerprint(
            get_spec("GTX1080")
        )
        assert spec_fingerprint(K20C) == spec_fingerprint(K20C)

    def test_pipeline_fingerprint_stable(self):
        assert pipeline_fingerprint(toy_pipeline()) == pipeline_fingerprint(
            toy_pipeline()
        )

    def test_trace_fingerprint_tracks_workload(self):
        pipe = toy_pipeline()
        _, trace_a = profile_pipeline(pipe, K20C, {"doubler": [1, 2]})
        _, trace_b = profile_pipeline(pipe, K20C, {"doubler": [1, 2]})
        _, trace_c = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        assert trace_fingerprint(trace_a) == trace_fingerprint(trace_b)
        assert trace_fingerprint(trace_a) != trace_fingerprint(trace_c)


class TestPerRunDeltas:
    def test_counters_stay_per_run_under_shared_reuse(self, tmp_path):
        """Regression: shared cache objects outlive a search, so reports
        must carry per-run counter *deltas*, never lifetime totals —
        repeated searches in one process would otherwise inflate every
        later report's traffic (the TraceCache bug PR 7 fixed)."""
        cold = _tuner(tmp_path / "c").tune()
        warm_one = _tuner(tmp_path / "c").tune()
        warm_two = _tuner(tmp_path / "c").tune()
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        # Identical warm traffic on every rerun — no accumulation.
        assert warm_one.cache_hits == warm_two.cache_hits
        assert warm_one.cache_hits == cold.cache_misses
        assert warm_one.cache_misses == warm_two.cache_misses == 0
        assert warm_two.cache_stats.stores == 0
