"""Compute-once/simulate-many trace reuse for the experiment harness.

A workload's task graph depends only on the workload parameters (which
include the seed) — never on the execution model or device the harness is
simulating.  The harness therefore runs the real stage computations once
per (workload, params), recording the full trace *with* output payloads
by the tuner's breadth-first walk, and replays that trace for every
model/config of the same cell, the recording one included: every run
simulates pure scheduling with recorded costs and recorded outputs,
skipping all numpy work.

Traces live in the ``traces`` namespace of :mod:`repro.store`: an
in-memory LRU of live :class:`~repro.core.trace.Trace` objects (real
ndarray payloads, cheap to keep for a process-long sweep), optionally
over a directory of pickles that lets a *fresh process* — another
benchmark invocation, a CI re-run, or a pool worker — skip all
functional execution and replay traces straight into its models
(docs/harness.md, "On-disk store").  Entries are keyed by
:func:`workload_fingerprint`: the namespace schema, the workload name,
and every parameter field.  Any parameter or seed change — or a schema
bump — misses cleanly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional

from ..store import NAMESPACES, Store, StoreStats, digest
from ..workloads.registry import WorkloadSpec

#: Default location honoured by ``repro ... --trace-cache-dir`` with no
#: value (sibling of the tuner's ``~/.cache/repro-tuner``).
DEFAULT_TRACE_CACHE_DIR = os.path.join("~", ".cache", "repro-traces")


def workload_fingerprint(spec: WorkloadSpec, params: object) -> str:
    """Content key of one functional cell: workload identity + parameters.

    Parameter dataclasses are flattened field by field so *every* field —
    sizes, iteration counts, and the seed — participates; non-dataclass
    params fall back to ``repr``.
    """
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        fields = dataclasses.asdict(params)
    else:
        fields = {"repr": repr(params)}
    return digest(
        json.dumps(
            {
                "schema": NAMESPACES["traces"].schema,
                "workload": spec.name,
                "params": fields,
            },
            sort_keys=True,
            default=repr,
        )
    )


class TraceCache(Store):
    """The harness's replay cache: a ``traces`` store plus ``last_run``.

    The traces stored here must be recorded with ``record_outputs=True``
    so replayed runs still deliver the real outputs: the recorded payload
    objects themselves.  The harness checks each live trace's outputs
    once and then only requires every replay to deliver that same
    multiset of objects (:func:`~repro.harness.runner.check_cell`).  The
    verdict lives on the in-memory trace, so a trace decoded from disk
    or in another process is checked again.

    With ``disk_dir`` set, every memory miss probes the directory and
    every ``put`` also persists the entry, so the cache survives the
    process and is shared between harness pool workers,
    ``tune_workload`` and repeated benchmark/CI invocations.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        disk_dir: Optional[str] = None,
    ) -> None:
        super().__init__("traces", root=disk_dir, max_entries=max_entries)
        #: Per-run counter delta of the most recent harness entry-point
        #: call (``run_column`` / ``run_versapipe`` /
        #: ``run_workload_models``) that used this cache; ``None`` until
        #: one completes.  Kept so ``repro stats`` reports per-run numbers
        #: even on the process-wide default cache, whose raw counters span
        #: the process lifetime.
        self.last_run: Optional[StoreStats] = None


#: Process-wide cache used by the harness entry points by default; the
#: serial entry points take ``cache=None`` to run every model's stage
#: code instead (the functional reference that the batch-equivalence
#: tests compare replay against).
DEFAULT_TRACE_CACHE = TraceCache()
