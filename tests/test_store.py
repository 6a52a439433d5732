"""The shared content-addressed store: one set of checks per namespace."""

import json
import os
import pickle

import pytest

from repro.store import (
    FORMAT_VERSION,
    MAX_OPEN_STORES,
    NAMESPACES,
    Store,
    StoreStats,
    digest,
    open_store,
)

#: A value of the shape each namespace really holds: JSON-able outcome
#: records for ``evals``, arbitrary picklable objects for ``traces``.
VALUES = {
    "evals": {"status": "completed", "time_ms": 1.5, "cycles": 3.0},
    "traces": ("trace", (1, 2, 3), {"outputs": [4.5]}),
}

KEY = digest("cell")


@pytest.fixture(params=sorted(VALUES))
def namespace(request):
    return request.param


def _read_envelope(store, key):
    with open(store.path_for(key), "rb") as fh:
        blob = fh.read()
    return json.loads(blob) if store.namespace == "evals" else pickle.loads(blob)


def _write_envelope(store, key, envelope):
    if store.namespace == "evals":
        blob = json.dumps(envelope).encode("utf-8")
    else:
        blob = pickle.dumps(envelope)
    with open(store.path_for(key), "wb") as fh:
        fh.write(blob)


class TestRoundTrip:
    def test_memory_then_disk_accounting(self, namespace, tmp_path):
        value = VALUES[namespace]
        store = Store(namespace, str(tmp_path))
        assert store.get(KEY) is None
        store.put(KEY, value)
        assert store.get(KEY) == value
        assert store.stats() == StoreStats(mem_hits=1, misses=1, stores=1)
        # A fresh store over the same directory (a new process) loads
        # the entry from disk once, then serves it from memory.
        fresh = Store(namespace, str(tmp_path))
        assert fresh.get(KEY) == value
        assert fresh.get(KEY) == value
        assert fresh.stats() == StoreStats(mem_hits=1, disk_hits=1)

    def test_envelope_on_disk(self, namespace, tmp_path):
        store = Store(namespace, str(tmp_path))
        store.put(KEY, VALUES[namespace])
        assert store.path_for(KEY).startswith(
            os.path.join(str(tmp_path), namespace, KEY[:2], KEY)
        )
        envelope = _read_envelope(store, KEY)
        assert envelope["format"] == FORMAT_VERSION
        assert envelope["namespace"] == namespace
        assert envelope["schema"] == NAMESPACES[namespace].schema
        assert envelope["key"] == KEY

    def test_memory_only_store_writes_nothing(self, namespace):
        store = Store(namespace)
        store.put(KEY, VALUES[namespace])
        assert store.get(KEY) == VALUES[namespace]
        assert store.stats() == StoreStats(mem_hits=1)
        assert store.entry_count() == 0
        with pytest.raises(ValueError):
            store.path_for(KEY)

    def test_rejected_value_is_a_miss(self, namespace, tmp_path):
        store = Store(namespace, str(tmp_path))
        store.put(KEY, VALUES[namespace])
        assert store.get(KEY, accept=lambda value: False) is None
        assert store.stats() == StoreStats(misses=1, stores=1)


class TestUnusableEntries:
    @pytest.mark.parametrize("damage", ["corrupt", "format", "schema", "key"])
    def test_reads_back_as_a_miss(self, namespace, damage, tmp_path):
        value = VALUES[namespace]
        store = Store(namespace, str(tmp_path))
        store.put(KEY, value)
        key = KEY
        if damage == "corrupt":
            with open(store.path_for(key), "wb") as fh:
                fh.write(b"\x80 not an entry")
        elif damage == "key":
            # A file renamed onto another key must not serve that key.
            key = digest("other cell")
            os.makedirs(os.path.dirname(store.path_for(key)), exist_ok=True)
            os.replace(store.path_for(KEY), store.path_for(key))
        else:
            envelope = _read_envelope(store, key)
            envelope[damage] += 1
            _write_envelope(store, key, envelope)
        fresh = Store(namespace, str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats() == StoreStats(misses=1)
        # The caller recomputes and overwrites with a good entry.
        fresh.put(key, value)
        assert Store(namespace, str(tmp_path)).get(key) == value

    def test_entry_count_ignores_temp_files(self, namespace, tmp_path):
        store = Store(namespace, str(tmp_path))
        assert store.entry_count() == 0
        store.put(KEY, VALUES[namespace])
        store.put(digest("second"), VALUES[namespace])
        path = store.path_for(KEY)
        suffix = os.path.splitext(path)[1]
        with open(os.path.join(os.path.dirname(path), ".tmp-x" + suffix), "wb"):
            pass  # an in-flight write another process has not published
        assert store.entry_count() == 2


class TestMemoryBound:
    def test_default_bound_per_namespace(self, namespace):
        assert Store(namespace).max_entries == NAMESPACES[namespace].max_entries

    def test_least_recently_used_is_evicted(self, namespace):
        value = VALUES[namespace]
        store = Store(namespace, max_entries=2)
        store.put(digest("a"), value)
        store.put(digest("b"), value)
        assert store.get(digest("a")) == value  # "a" is now most recent
        store.put(digest("c"), value)
        assert len(store) == 2
        assert store.get(digest("b")) is None
        assert store.get(digest("a")) == value
        assert store.get(digest("c")) == value

    def test_bound_must_be_positive(self, namespace):
        with pytest.raises(ValueError):
            Store(namespace, max_entries=0)

    def test_memory_only_namespace_rejects_a_directory(self, tmp_path):
        with pytest.raises(ValueError):
            Store("payloads", str(tmp_path))


class TestRegistry:
    def test_path_spellings_share_one_store(self, namespace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = open_store(namespace, "d")
        assert open_store(namespace, "./d") is store
        assert open_store(namespace, str(tmp_path / "d")) is store
        other = "traces" if namespace == "evals" else "evals"
        assert open_store(other, "d") is not store

    def test_registry_is_bounded(self, namespace, tmp_path):
        first = open_store(namespace, str(tmp_path / "d0"))
        kept = open_store(namespace, str(tmp_path / "d1"))
        for index in range(2, MAX_OPEN_STORES + 1):
            open_store(namespace, str(tmp_path / f"d{index}"))
            assert open_store(namespace, str(tmp_path / "d1")) is kept
        # d0 was the least recently used store and fell out; asking
        # again builds a fresh one.
        assert open_store(namespace, str(tmp_path / "d0")) is not first


class TestStoreStats:
    def test_arithmetic_and_rendering(self):
        a = StoreStats(mem_hits=5, disk_hits=1, misses=2, stores=3)
        b = StoreStats(mem_hits=2, disk_hits=1, misses=1, stores=1)
        assert a - b == StoreStats(mem_hits=3, disk_hits=0, misses=1, stores=2)
        assert a + b == StoreStats(mem_hits=7, disk_hits=2, misses=3, stores=4)
        assert a.total_hits == 6
        assert (a - a) == StoreStats()
        assert a.describe() == (
            "6 hits / 2 misses (memory: 5, disk: 1; 3 stores)"
        )
