"""Memoized tuner searches: the key of one whole search.

Replaying a candidate configuration is deterministic, and so is the
canonical report of a whole search (docs/tuning.md): the same pipeline
topology, device spec, recorded trace, profile, search options and
candidate list always produce the same records, whatever the worker
count.  That makes a search memoizable as a unit: repeated ``repro
tune`` invocations (and CI reruns) replay nothing.

Searches live in the ``evals`` namespace of :mod:`repro.store` (JSON on
disk; docs/harness.md describes the layout), one entry per search.
:func:`search_key` fingerprints everything the records depend on — the
namespace schema, the pipeline topology (stage names, edges and kernel
resources), the device spec, the recorded trace (the workload seed:
every task's stage, cost and children), the profile, the search options
other than ``workers`` and ``cache_dir``, and every candidate
configuration.  Any change to them lands on a different key and misses
cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import astuple, fields
from typing import TYPE_CHECKING, Optional, Sequence

from ...gpu.specs import GPUSpec
from ...store import NAMESPACES, digest
from ..config import PipelineConfig
from ..pipeline import Pipeline
from ..trace import Trace
from .profiler import PipelineProfile

if TYPE_CHECKING:
    from .offline import TunerOptions

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


def profile_fingerprint(profile: Optional[PipelineProfile]) -> str:
    """Stable hash of the per-stage profile (``"none"`` without one)."""
    if profile is None:
        return "none"
    rows = [astuple(stage) for stage in profile.stages.values()]
    return digest(json.dumps([rows, profile.total_tasks]))


def search_key(
    pipeline: Pipeline,
    spec: GPUSpec,
    trace: Trace,
    profile: Optional[PipelineProfile],
    options: TunerOptions,
    candidates: Sequence[PipelineConfig],
) -> str:
    """Store key of one whole search; the worker count is not part of it."""
    settings = {
        f.name: getattr(options, f.name)
        for f in fields(options)
        if f.name not in ("workers", "cache_dir")
    }
    return digest(
        f"schema={NAMESPACES['evals'].schema}",
        pipeline_fingerprint(pipeline),
        spec_fingerprint(spec),
        trace_fingerprint(trace),
        profile_fingerprint(profile),
        json.dumps(settings, sort_keys=True),
        *(config_fingerprint(config) for config in candidates),
    )
