"""Memoized tuner evaluations: keys, entries and the deadline rule.

Replaying a candidate configuration is deterministic: the same pipeline
topology, device spec, recorded trace and configuration always produce
the same simulated time.  That makes every evaluated cell memoizable —
repeated ``tune``/``compare`` invocations (and CI reruns) can skip
already-simulated cells entirely.

Cells live in the ``evals`` namespace of :mod:`repro.store` (JSON on
disk; docs/harness.md describes the layout).  :func:`space_key`
fingerprints everything shared by a search — the namespace schema, the
pipeline topology (stage names, edges and kernel resources), the device
spec, and the recorded trace (the workload seed: every task's stage,
cost and children) — and :func:`eval_key` adds the candidate
configuration.  Any change to pipeline, device, workload or schema
therefore lands on a different key and misses cleanly.

Entries record one of three outcomes:

* ``completed`` — the replayed time in ms, the elapsed engine cycles
  (exact, for the tuner's canonical deadline normalization) and the
  queue-pressure summary;
* ``invalid`` — the configuration failed validation (deadline
  independent, always reusable);
* ``timeout`` — the replay ran past ``exceeded_cycles``.  A timeout
  entry is only a hit when the *current* deadline is no larger than the
  recorded one (the run would provably time out again); otherwise the
  cell is re-evaluated and the entry overwritten (:func:`lookup`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

from ...gpu.specs import GPUSpec
from ...store import NAMESPACES, Store, digest
from ..config import PipelineConfig
from ..pipeline import Pipeline
from ..trace import Trace
from .profiler import QueuePressure

#: Default location honoured by ``repro tune --cache-dir`` with no value.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-tuner")


def pipeline_fingerprint(pipeline: Pipeline) -> str:
    """Stable hash of the pipeline topology and kernel resources."""
    rows = []
    for name in pipeline.stage_names:
        stage = pipeline.stage(name)
        rows.append(
            (
                stage.name,
                tuple(stage.emits_to),
                stage.threads_per_item,
                stage.threads_per_block,
                stage.registers_per_thread,
                stage.shared_mem_per_block,
                stage.code_bytes,
                stage.item_bytes,
                bool(stage.requires_global_sync),
            )
        )
    return digest(json.dumps(rows, sort_keys=True))


def spec_fingerprint(spec: GPUSpec) -> str:
    """Stable hash of every architectural parameter of the device."""
    row = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return digest(json.dumps(row, sort_keys=True, default=repr))


def trace_fingerprint(trace: Trace) -> str:
    """Stable hash of the recorded task graph (the workload seed)."""
    hasher = hashlib.sha256()
    for node in trace.nodes:
        hasher.update(
            (
                f"{node.node_id}|{node.stage}|{node.cost.cycles_per_thread!r}"
                f"|{node.cost.mem_fraction!r}|{node.cost.min_cycles!r}"
                f"|{node.children!r}|{node.n_outputs}\n"
            ).encode("utf-8")
        )
    for stage in sorted(trace.initial):
        hasher.update(f"@{stage}:{tuple(trace.initial[stage])!r}\n".encode())
    return hasher.hexdigest()


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable hash of one candidate configuration."""
    rows = []
    for group in config.groups:
        block_map = (
            sorted(group.block_map.items()) if group.block_map else None
        )
        rows.append(
            (tuple(group.stages), group.model, tuple(group.sm_ids), block_map)
        )
    payload = json.dumps(
        {"groups": rows, "policy": config.policy, "queue": config.queue_mode},
        sort_keys=True,
    )
    return digest(payload)


def space_key(pipeline: Pipeline, spec: GPUSpec, trace: Trace) -> str:
    """Key of one search space: schema, pipeline, device and trace."""
    return digest(
        f"schema={NAMESPACES['evals'].schema}",
        pipeline_fingerprint(pipeline),
        spec_fingerprint(spec),
        trace_fingerprint(trace),
    )


def eval_key(space: str, config: PipelineConfig) -> str:
    """Store key of one candidate within a search space."""
    return digest(space, config_fingerprint(config))


@dataclass(frozen=True)
class CachedEvaluation:
    """One memoized cell, as read from (or about to be written to) disk."""

    status: str  # "completed" | "invalid" | "timeout"
    time_ms: float = math.inf
    note: str = ""
    exceeded_cycles: float = 0.0
    pressure: Optional[QueuePressure] = None
    #: Exact elapsed engine cycles of a completed replay.  The tuner's
    #: canonical post-pass compares these against the final deadline in
    #: the cycle domain, so they must round-trip losslessly.
    cycles: float = 0.0

    def to_payload(self) -> dict:
        payload: dict = {"status": self.status, "note": self.note}
        if self.status == "completed":
            payload["time_ms"] = self.time_ms
            payload["cycles"] = self.cycles
            if self.pressure is not None:
                payload["pressure"] = {
                    "peak": dict(self.pressure.peak_per_stage),
                    "residual": dict(self.pressure.residual_per_stage),
                }
        if self.status == "timeout":
            payload["exceeded_cycles"] = self.exceeded_cycles
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> Optional["CachedEvaluation"]:
        if not isinstance(payload, dict):
            return None
        status = payload.get("status")
        if status == "completed":
            time_ms = payload.get("time_ms")
            cycles = payload.get("cycles")
            if not isinstance(time_ms, (int, float)):
                return None
            if not isinstance(cycles, (int, float)):
                return None
            pressure = None
            raw = payload.get("pressure")
            if isinstance(raw, dict):
                pressure = QueuePressure(
                    peak_per_stage=dict(raw.get("peak", {})),
                    residual_per_stage=dict(raw.get("residual", {})),
                )
            return cls(
                status="completed",
                time_ms=float(time_ms),
                note=str(payload.get("note", "")),
                pressure=pressure,
                cycles=float(cycles),
            )
        if status == "invalid":
            return cls(status="invalid", note=str(payload.get("note", "")))
        if status == "timeout":
            exceeded = payload.get("exceeded_cycles")
            if not isinstance(exceeded, (int, float)):
                return None
            return cls(status="timeout", exceeded_cycles=float(exceeded))
        return None


def lookup(
    store: Store, key: str, deadline_cycles: float = math.inf
) -> Optional[CachedEvaluation]:
    """The memoized outcome, or None when the cell must be replayed.

    A ``timeout`` entry only satisfies deadlines at least as strict as
    the one it was recorded under.  An unusable memory entry falls
    through to disk — a concurrent worker may have overwritten the cell
    with a completed or longer-deadline outcome.
    """

    def usable(payload: dict) -> bool:
        entry = CachedEvaluation.from_payload(payload)
        if entry is None:
            return False
        # A longer deadline might let a timed-out cell finish.
        return not (
            entry.status == "timeout"
            and entry.exceeded_cycles < deadline_cycles
        )

    payload = store.get(key, accept=usable)
    return None if payload is None else CachedEvaluation.from_payload(payload)
