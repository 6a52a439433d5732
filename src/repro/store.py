"""One content-addressed store behind every cache in the repo.

Three caches share this module, each as a *namespace* with its own
codec, schema version and in-memory bound (:data:`NAMESPACES`):

* ``evals`` — the tuner's memoized searches, one entry per search
  (:mod:`repro.core.tuner.cache`), JSON on disk;
* ``traces`` — the harness's recorded task traces
  (:mod:`repro.harness.tracecache`), pickled because the recorded
  outputs hold real ndarrays;
* ``payloads`` — decoded pool payloads in persistent workers
  (:mod:`repro.core.tuner.handoff`), memory only.

A :class:`Store` is a bounded in-memory LRU over an optional directory.
Keys are content fingerprints (:func:`digest`), so any change to what a
value depends on lands on a different key and misses cleanly.  On disk
each entry is one file::

    <root>/<namespace>/<key[:2]>/<key>.json|.pkl

holding the envelope ``{format, namespace, schema, key, value}``.  Every
load checks all four header fields, and anything unusable — a missing
or corrupt file, a stale :data:`FORMAT_VERSION` or schema, a file
renamed onto another key — reads back as a clean miss that the caller
recomputes and overwrites, never an error.  Writes go through a temp
file and ``os.replace``, so concurrent writers sharing one directory
(parallel tuner or harness workers) only ever publish whole entries.

Counters accumulate for a store's lifetime.  A process-wide store
(:func:`open_store`) serves every dispatch a persistent worker handles,
so per-run numbers are always ``stats()`` after minus before
(:class:`StoreStats` subtracts and adds).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Bump to invalidate every on-disk entry of every namespace (envelope
#: or layout change).  v2: the shared envelope; entries written by the
#: separate tuner and trace caches before it read back as misses.
FORMAT_VERSION = 2


@dataclass(frozen=True)
class Namespace:
    """How one namespace stores its values."""

    #: Version of the value layout; bump to invalidate the namespace.
    schema: int
    #: ``"json"`` or ``"pickle"`` on disk; ``None`` for memory only.
    codec: Optional[str]
    #: Decoded values kept in one store's memory layer.
    max_entries: int


NAMESPACES: dict[str, Namespace] = {
    # v3: one entry per whole search (v2 held one per candidate).
    "evals": Namespace(schema=3, codec="json", max_entries=64),
    # Entries hold real output ndarrays; the bound caps resident memory.
    # v2: every trace is recorded breadth-first (the tuner's node order);
    # v1 entries recorded by the harness in model-run order read back
    # as misses.
    "traces": Namespace(schema=2, codec="pickle", max_entries=8),
    "payloads": Namespace(schema=1, codec=None, max_entries=8),
}

#: A codec is ``(file suffix, encode, decode)``.
_Codec = tuple[str, Callable[[Any], bytes], Callable[[bytes], Any]]

_CODECS: dict[str, _Codec] = {
    "json": (
        ".json",
        lambda obj: json.dumps(obj, sort_keys=True).encode("utf-8"),
        json.loads,
    ),
    "pickle": (
        ".pkl",
        lambda obj: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        pickle.loads,
    ),
}

_TMP_PREFIX = ".tmp-"


def digest(*parts: str) -> str:
    """sha256 hex key of ``parts`` joined with ``|``."""
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _lru_put(entries: OrderedDict, key: Any, value: Any, bound: int) -> None:
    """Insert ``key`` as most recent, evicting the oldest past ``bound``."""
    entries[key] = value
    entries.move_to_end(key)
    while len(entries) > bound:
        entries.popitem(last=False)


@dataclass(frozen=True)
class StoreStats:
    """A counter snapshot of one store, or the difference of two.

    ``mem_hits`` and ``disk_hits`` count lookups served by the memory
    layer and by loading a disk entry; ``misses`` counts lookups that
    found nothing usable; ``stores`` counts entries written to disk.
    Snapshots subtract (per-run deltas) and add (merging the deltas of
    parallel workers).
    """

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def total_hits(self) -> int:
        """Lookups that avoided recomputation (memory + disk)."""
        return self.mem_hits + self.disk_hits

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            mem_hits=self.mem_hits + other.mem_hits,
            disk_hits=self.disk_hits + other.disk_hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
        )

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            mem_hits=self.mem_hits - other.mem_hits,
            disk_hits=self.disk_hits - other.disk_hits,
            misses=self.misses - other.misses,
            stores=self.stores - other.stores,
        )

    def describe(self) -> str:
        """One-line rendering used by ``repro`` commands."""
        return (
            f"{self.total_hits} hits / {self.misses} misses "
            f"(memory: {self.mem_hits}, disk: {self.disk_hits}; "
            f"{self.stores} stores)"
        )


class Store:
    """A bounded in-memory LRU over an optional on-disk directory.

    ``get`` consults memory first, then disk (loading found entries
    into memory); ``put`` writes through to both.  Values must not be
    ``None``, which ``get`` returns for a miss.
    """

    def __init__(
        self,
        namespace: str,
        root: Optional[str] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        spec = NAMESPACES[namespace]
        if root and spec.codec is None:
            raise ValueError(f"namespace {namespace!r} is memory-only")
        self.namespace = namespace
        self.schema = spec.schema
        self.max_entries = spec.max_entries if max_entries is None else max_entries
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        #: The directory under the disk layer, or ``None`` (memory only).
        self.root = os.path.expanduser(root) if root else None
        self._codec = _CODECS[spec.codec] if root and spec.codec else None
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self.mem_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._memory)

    def path_for(self, key: str) -> str:
        """Where ``key``'s entry lives on disk (requires a root)."""
        if self.root is None or self._codec is None:
            raise ValueError("a memory-only store has no paths")
        return os.path.join(
            self.root, self.namespace, key[:2], key + self._codec[0]
        )

    def stats(self) -> StoreStats:
        """Snapshot of the lifetime counters (subtract two for a delta)."""
        return StoreStats(
            mem_hits=self.mem_hits,
            disk_hits=self.disk_hits,
            misses=self.misses,
            stores=self.stores,
        )

    def get(self, key: str) -> Any:
        """The value stored under ``key``, or ``None`` on a miss."""
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
            self.mem_hits += 1
            return value
        codec = self._codec
        value = self._load(codec, key) if codec is not None else None
        if value is not None:
            _lru_put(self._memory, key, value, self.max_entries)
            self.disk_hits += 1
            return value
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        """Remember ``value``; with a root, also write it atomically."""
        if self._codec is not None:
            self._write(self._codec, key, value)
            self.stores += 1
        _lru_put(self._memory, key, value, self.max_entries)

    def clear(self) -> None:
        """Drop the memory layer and reset the counters (disk is kept)."""
        self._memory.clear()
        self.mem_hits = self.disk_hits = self.misses = self.stores = 0

    def entry_count(self) -> int:
        """Complete entries on disk (in-flight temp files excluded)."""
        if self.root is None or self._codec is None:
            return 0
        suffix = self._codec[0]
        return sum(
            1
            for _dirpath, _dirnames, names in os.walk(
                os.path.join(self.root, self.namespace)
            )
            for name in names
            if name.endswith(suffix) and not name.startswith(_TMP_PREFIX)
        )

    # ------------------------------------------------------------------
    def _load(self, codec: _Codec, key: str) -> Any:
        try:
            with open(self.path_for(key), "rb") as fh:
                envelope = codec[2](fh.read())
        except Exception:  # missing, torn, corrupt or unloadable: a miss
            return None
        if not isinstance(envelope, dict):
            return None
        if (
            envelope.get("format") != FORMAT_VERSION
            or envelope.get("namespace") != self.namespace
            or envelope.get("schema") != self.schema
            or envelope.get("key") != key
        ):
            return None
        return envelope.get("value")

    def _write(self, codec: _Codec, key: str, value: Any) -> None:
        suffix, encode, _decode = codec
        blob = encode(
            {
                "format": FORMAT_VERSION,
                "namespace": self.namespace,
                "schema": self.schema,
                "key": key,
                "value": value,
            }
        )
        target = self.path_for(key)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=_TMP_PREFIX, suffix=suffix
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_path, target)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


#: Process-wide stores kept by :func:`open_store`.  The bound caps the
#: resident memory of long-lived pool workers that serve many cache
#: directories over their life (the test suite does).
MAX_OPEN_STORES = 4

_OPEN_STORES: OrderedDict[tuple[str, str], Store] = OrderedDict()


def open_store(namespace: str, root: str) -> Store:
    """The process-wide store of ``namespace`` over directory ``root``.

    Keyed by the absolute path, so spellings of one directory share one
    store.  Persistent pool workers resolve their stores here, so a
    reused worker serves repeat lookups from memory across dispatches;
    because the pool forks lazily, workers also inherit the parent's
    open stores copy-on-write.  Memory-only stores are never registered:
    they stay private to the caller that built them.
    """
    key = (namespace, os.path.abspath(os.path.expanduser(root)))
    store = _OPEN_STORES.get(key)
    if store is None:
        store = Store(namespace, root)
    _lru_put(_OPEN_STORES, key, store, MAX_OPEN_STORES)
    return store
