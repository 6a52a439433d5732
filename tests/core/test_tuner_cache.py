"""Memoized tuner searches: hits, misses, keys and unusable entries."""

import dataclasses
import functools
import json

import pytest

from repro import store as store_mod
from repro.core.errors import ConfigurationError
from repro.core.tuner import offline
from repro.core.tuner.cache import (
    config_fingerprint,
    pipeline_fingerprint,
    profile_fingerprint,
    search_key,
    spec_fingerprint,
    trace_fingerprint,
)
from repro.core.tuner.offline import OfflineTuner, TunerOptions
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C, get_spec
from repro.store import open_store

from .conftest import toy_pipeline


@functools.lru_cache(maxsize=None)
def _recorded(count=200):
    pipe = toy_pipeline()
    profile, trace = profile_pipeline(
        pipe, K20C, {"doubler": list(range(1, count))}
    )
    return pipe, profile, trace


def _tuner(cache_dir=None, workers=1, budget=25, **options):
    pipe, profile, trace = _recorded()
    return OfflineTuner(
        pipe,
        K20C,
        trace,
        profile=profile,
        options=TunerOptions(
            max_configs=budget,
            workers=workers,
            cache_dir=str(cache_dir) if cache_dir else None,
            **options,
        ),
    )


def _key(tuner):
    return search_key(
        tuner.pipeline,
        tuner.spec,
        tuner.trace,
        tuner.profile,
        tuner.options,
        tuner.candidates(),
    )


def _payload_bytes(report):
    return json.dumps(report.canonical_payload(), sort_keys=True)


def _heavier_pipeline():
    """The toy pipeline with a register-heavier first stage: another
    kernel, hence another pipeline fingerprint."""
    pipe = toy_pipeline()
    pipe.stage("doubler").registers_per_thread = 96
    return pipe


def _replay_counter(monkeypatch):
    """Record the config of every replay from here on."""
    calls = []
    real = offline._replay_config

    def replay(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(offline, "_replay_config", replay)
    return calls


class TestSearchWithCache:
    def test_cold_then_warm(self, tmp_path, monkeypatch):
        """One entry per search: a cold run misses once and stores it;
        warm reruns at any worker count hit once and replay nothing.
        The canonical payload is the uncached search's, byte for byte."""
        uncached = [_tuner(workers=w).tune() for w in (1, 2)]
        reference = _payload_bytes(uncached[0])
        assert _payload_bytes(uncached[1]) == reference

        cold = _tuner(tmp_path / "c", workers=2).tune()
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        assert _payload_bytes(cold) == reference
        assert open_store("evals", str(tmp_path / "c")).entry_count() == 1

        calls = _replay_counter(monkeypatch)
        for workers in (1, 2):
            warm = _tuner(tmp_path / "c", workers=workers).tune()
            assert (warm.cache_hits, warm.cache_misses) == (1, 0)
            assert warm.workers == workers
            assert warm.best_config == cold.best_config
            assert warm.best_time_ms == cold.best_time_ms
            assert _payload_bytes(warm) == reference
        assert calls == []

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

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        first = _tuner(tmp_path / "c").tune()
        assert first.cache_misses == 1
        evals = store_mod.NAMESPACES["evals"]
        monkeypatch.setitem(
            store_mod.NAMESPACES,
            "evals",
            dataclasses.replace(evals, schema=evals.schema + 1),
        )
        rerun = _tuner(tmp_path / "c").tune()
        assert rerun.cache_hits == 0  # the old entry misses cleanly
        assert rerun.best_config == first.best_config

    def test_different_workload_different_space(self, tmp_path):
        """A changed trace must land on a different search key."""
        pipe = toy_pipeline()
        _, trace_a = profile_pipeline(pipe, K20C, {"doubler": [1, 2, 3]})
        _, trace_b = profile_pipeline(pipe, K20C, {"doubler": [4, 5, 6]})
        options = TunerOptions(max_configs=5)
        keys = {
            search_key(
                pipe, K20C, trace, None, options,
                OfflineTuner(pipe, K20C, trace, options=options).candidates(),
            )
            for trace in (trace_a, trace_b)
        }
        assert len(keys) == 2

    def test_key_moves_with_every_search_input(self):
        base = _tuner()
        pipe, profile, trace = _recorded()
        _, other_profile, other_trace = _recorded(150)
        variants = {
            "budget": _tuner(budget=24),
            "kbk": _tuner(include_kbk_groups=False),
            "dominance": _tuner(dominance_pruning=False),
            "trace": OfflineTuner(
                pipe, K20C, other_trace, profile=profile,
                options=base.options,
            ),
            "profile": OfflineTuner(
                pipe, K20C, trace, profile=other_profile,
                options=base.options,
            ),
            "no profile": OfflineTuner(
                pipe, K20C, trace, options=base.options
            ),
            "device": OfflineTuner(
                pipe, get_spec("GTX1080"), trace, profile=profile,
                options=base.options,
            ),
            "pipeline": OfflineTuner(
                _heavier_pipeline(), K20C, trace, profile=profile,
                options=base.options,
            ),
        }
        keys = {name: _key(tuner) for name, tuner in variants.items()}
        keys["base"] = _key(base)
        assert len(set(keys.values())) == len(keys), keys

    def test_key_ignores_workers_and_directory(self, tmp_path):
        key = _key(_tuner())
        assert _key(_tuner(workers=2)) == key
        assert _key(_tuner(tmp_path / "elsewhere", workers=4)) == key

    def test_cold_cached_race_uses_the_shared_bound(
        self, tmp_path, monkeypatch
    ):
        """A cached search races exactly as an uncached one: at
        ``workers=2`` its shards read the cross-worker bound."""
        payloads = []
        real = offline.map_shards

        def spy(fn, payload, shards, workers):
            payloads.append(payload)
            return real(fn, payload, shards, workers)

        monkeypatch.setattr(offline, "map_shards", spy)
        _tuner(tmp_path / "c", workers=2).tune()
        assert len(payloads) == 1
        assert payloads[0].shared_best is not None


class TestCacheSemantics:
    def test_roundtrip_completed(self, tmp_path, monkeypatch):
        """Records rebuilt from the JSON file equal the raced ones field
        for field, exact times and cycles included."""
        cold = _tuner(tmp_path).tune()
        open_store("evals", str(tmp_path)).clear()
        calls = _replay_counter(monkeypatch)
        warm = _tuner(tmp_path).tune()
        assert warm.cache_hits == 1 and calls == []
        assert warm.evaluated == cold.evaluated
        assert any(e.cycles > 0 for e in warm.evaluated)

    def test_invalid_entry_always_hits(self, tmp_path, monkeypatch):
        """An infeasible candidate is memoized with its note like any
        other outcome: the warm rerun reports it without a replay."""
        real = offline._replay_config
        candidates = _tuner().candidates()

        def replay(pipeline, spec, trace, config, **kwargs):
            if config == candidates[3]:
                raise ConfigurationError("cannot place this plan")
            return real(pipeline, spec, trace, config, **kwargs)

        monkeypatch.setattr(offline, "_replay_config", replay)
        cold = _tuner(tmp_path).tune()
        assert cold.evaluated[3].note == "invalid: cannot place this plan"
        calls = _replay_counter(monkeypatch)
        warm = _tuner(tmp_path).tune()
        assert warm.cache_hits == 1 and calls == []
        assert warm.evaluated[3].outcome == "invalid"
        assert warm.canonical_payload() == cold.canonical_payload()

    def _assert_miss_then_recompute(self, tmp_path, monkeypatch):
        """The next search misses, replays, overwrites the entry, and
        the one after it hits (from disk, in a fresh memory layer)."""
        calls = _replay_counter(monkeypatch)
        store = open_store("evals", str(tmp_path))
        store.clear()
        rerun = _tuner(tmp_path).tune()
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
        assert calls
        store.clear()
        del calls[:]
        again = _tuner(tmp_path).tune()
        assert (again.cache_hits, again.cache_misses) == (1, 0)
        assert store.stats().disk_hits == 1
        assert calls == []
        assert again.canonical_payload() == rerun.canonical_payload()

    def test_corrupt_file_is_a_miss(self, tmp_path, monkeypatch):
        tuner = _tuner(tmp_path)
        tuner.tune()
        path = open_store("evals", str(tmp_path)).path_for(_key(tuner))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        self._assert_miss_then_recompute(tmp_path, monkeypatch)

    def test_unknown_status_is_a_miss(self, tmp_path, monkeypatch):
        """A per-candidate entry (the v2 layout) under the key misses."""
        store = open_store("evals", str(tmp_path))
        store.put(_key(_tuner()), {"status": "quantum"})
        self._assert_miss_then_recompute(tmp_path, monkeypatch)

    @pytest.mark.parametrize("damage", ["short", "reordered", "row"])
    def test_stale_entry_is_a_miss(self, tmp_path, monkeypatch, damage):
        tuner = _tuner(tmp_path)
        entry = offline._to_entry(tuner.tune().evaluated)
        if damage == "short":
            entry = entry[:-1]
        elif damage == "reordered":
            entry = entry[1:] + entry[:1]
        else:
            entry[2] = ["2", "timeout"]
        open_store("evals", str(tmp_path)).put(_key(tuner), entry)
        self._assert_miss_then_recompute(tmp_path, monkeypatch)

    def test_entry_count_and_clear(self, tmp_path, monkeypatch):
        store = open_store("evals", str(tmp_path))
        assert store.entry_count() == 0
        _tuner(tmp_path).tune()
        assert store.entry_count() == 1
        # Clearing drops the memory layer only: the search reloads
        # from disk.
        store.clear()
        assert len(store) == 0
        calls = _replay_counter(monkeypatch)
        assert _tuner(tmp_path).tune().cache_hits == 1
        assert store.stats().disk_hits == 1
        assert calls == []


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

    def test_profile_fingerprint_tracks_profile(self):
        _, profile, _ = _recorded()
        _, same, _ = _recorded.__wrapped__()
        _, other, _ = _recorded(150)
        assert profile_fingerprint(profile) == profile_fingerprint(same)
        assert profile_fingerprint(profile) != profile_fingerprint(other)
        assert profile_fingerprint(None) != profile_fingerprint(profile)


class TestPerRunDeltas:
    def test_counters_stay_per_run_under_shared_reuse(self, tmp_path):
        """Regression: the process-wide store outlives a search, so each
        report counts its own lookup, never the store's lifetime totals."""
        cold = _tuner(tmp_path / "c").tune()
        warm_one = _tuner(tmp_path / "c").tune()
        warm_two = _tuner(tmp_path / "c").tune()
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        assert (warm_one.cache_hits, warm_one.cache_misses) == (1, 0)
        assert (warm_two.cache_hits, warm_two.cache_misses) == (1, 0)
