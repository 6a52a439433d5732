"""Sharded process-pool experiment harness.

VersaPipe's evaluation is a grid — workloads × execution models ×
devices (Fig. 11, Fig. 13, Table 2) — and every cell of that grid is
independent: each run builds its own pipeline, its own simulated device
and its own executor.  This module fans the cells across worker
processes exactly the way the offline tuner fans its candidate
configurations (:mod:`repro.core.tuner.pool`): the canonical task list
is split into deterministic *stride shards* (shard ``i`` holds tasks
``i, i+W, i+2W, ...``), each worker runs its shard sequentially with the
ordinary :func:`~repro.harness.runner.run_cell` /
:func:`~repro.harness.runner.run_versapipe` entry points, and the shard
results are merged back by the same stride arithmetic.

Determinism contract (pinned by ``tests/test_harness_pool.py``):

* ``workers=1`` is the classic serial loop over the canonical plan;
* any worker count produces byte-identical simulated results — cycles,
  stage stats, device metrics, merged reports and BENCH JSON — because
  every cell simulates on its own private device and sharding never
  changes which cell runs which computation.  The only per-cell field
  that may differ is :attr:`~repro.harness.runner.ExperimentCell
  .replayed` — cache *provenance*, not a simulated result — which is why
  :func:`suite_bench_payload` excludes it.

Workers share functional work through a directory of the ``traces``
store (``cache_dir=``, :mod:`repro.store`): each worker keeps a private
in-memory LRU over the shared directory, so a warm cache lets every
worker replay traces straight into its models without executing any
stage code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.models import (
    CoarsePipelineModel,
    DynamicParallelismModel,
    FinePipelineModel,
    KBKModel,
    MegakernelModel,
    RTCModel,
)
from ..core.tuner.pool import default_workers, map_shards, stride_shards
from ..gpu.specs import get_spec
from ..store import Store, StoreStats
from ..workloads.registry import all_workloads, get_workload
from .runner import ExperimentCell, run_cell, run_shard_cells, run_versapipe

#: The Table 2 columns; the default suite runs one cell per column.
COLUMNS = ("baseline", "megakernel", "versapipe")

#: Columns naming a single execution model (the remaining two —
#: ``baseline`` and ``versapipe`` — need the workload spec to resolve).
_SINGLE_MODELS = {
    "rtc": RTCModel,
    "kbk": KBKModel,
    "megakernel": MegakernelModel,
    "coarse": CoarsePipelineModel,
    "fine": FinePipelineModel,
    "dynamic_parallelism": DynamicParallelismModel,
}


@dataclass(frozen=True)
class CellTask:
    """One cell of the evaluation grid, by name (cheap to pickle)."""

    workload: str
    column: str
    device: str = "K20c"


def plan_suite(
    workloads: Optional[Iterable[str]] = None,
    devices: Sequence[str] = ("K20c",),
    columns: Sequence[str] = COLUMNS,
) -> list[CellTask]:
    """The canonical task list: workload → device → column order.

    This order *is* the determinism anchor — sharding and merging both
    key off positions in this list, so the merged cells always read back
    in plan order no matter how many workers ran them.
    """
    names = sorted(all_workloads()) if workloads is None else list(workloads)
    return [
        CellTask(workload=name, column=column, device=device)
        for name in names
        for device in devices
        for column in columns
    ]


@dataclass(frozen=True)
class _SuitePayload:
    """Everything a worker needs to run its shard (picklable by value)."""

    check: bool = True
    observe: bool = False
    batch_size: Optional[int] = None
    cache_dir: Optional[str] = None
    replay_cache: bool = True
    full: bool = False
    #: Explicit per-workload parameter overrides (workload name -> params
    #: dataclass); workloads not listed fall back to quick/full defaults.
    params: dict = field(default_factory=dict)

    def resolve_params(self, spec) -> object:
        if spec.name in self.params:
            return self.params[spec.name]
        return spec.default_params() if self.full else spec.quick_params()


@dataclass
class _ShardCells:
    """One worker's results: its cells plus its cache counter totals."""

    cells: list[ExperimentCell]
    cache_stats: StoreStats


def _run_task(
    task: CellTask, payload: _SuitePayload, cache: Optional[Store]
) -> ExperimentCell:
    spec = get_workload(task.workload)
    gpu = get_spec(task.device)
    params = payload.resolve_params(spec)
    if task.column == "versapipe":
        return run_versapipe(
            spec,
            gpu,
            params,
            check=payload.check,
            observe=payload.observe,
            batch_size=payload.batch_size,
            cache=cache,
        )
    if task.column == "baseline":
        model = spec.baseline_model(params)
        label = spec.baseline_name
    elif task.column in _SINGLE_MODELS:
        model = _SINGLE_MODELS[task.column]()
        label = None
    else:
        raise ValueError(f"unknown suite column: {task.column!r}")
    return run_cell(
        spec,
        model,
        gpu,
        params,
        check=payload.check,
        label=label,
        observe=payload.observe,
        batch_size=payload.batch_size,
        cache=cache,
    )


def _run_cell_shard(
    payload: _SuitePayload, shard: list[CellTask]
) -> _ShardCells:
    """Worker entry point: run one shard sequentially (the cache and
    the per-dispatch counter delta come from
    :func:`~repro.harness.runner.run_shard_cells`)."""
    cells, stats = run_shard_cells(
        payload.replay_cache,
        payload.cache_dir,
        lambda cache: [_run_task(task, payload, cache) for task in shard],
    )
    return _ShardCells(cells=cells, cache_stats=stats)


def run_cells(
    tasks: Sequence[CellTask],
    workers: Optional[int] = None,
    check: bool = True,
    observe: bool = False,
    batch_size: Optional[int] = None,
    cache_dir: Optional[str] = None,
    replay_cache: bool = True,
    full: bool = False,
    params: Optional[dict] = None,
) -> tuple[list[ExperimentCell], StoreStats]:
    """Run every task, fanned across ``workers`` processes.

    Returns ``(cells, cache_stats)`` with ``cells`` in task order and
    ``cache_stats`` the sum of every worker's cache counters.  With
    ``workers=1`` (or one task) everything runs in-process — the classic
    serial loop; any other count produces byte-identical cells.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payload = _SuitePayload(
        check=check,
        observe=observe,
        batch_size=batch_size,
        cache_dir=cache_dir,
        replay_cache=replay_cache,
        full=full,
        params=dict(params or {}),
    )
    shards = stride_shards(tasks, workers)
    shard_results = map_shards(_run_cell_shard, payload, shards, workers)
    count = len(shards)
    merged: list[ExperimentCell] = [None] * len(tasks)  # type: ignore[list-item]
    stats = StoreStats()
    for offset, shard_result in enumerate(shard_results):
        merged[offset::count] = shard_result.cells
        stats = stats + shard_result.cache_stats
    return merged, stats


@dataclass
class SuiteResult:
    """A full evaluation-suite run: the plan, its cells, and how it ran."""

    tasks: list[CellTask]
    cells: list[ExperimentCell]
    workers: int
    cache_stats: StoreStats
    wall_s: float

    def by_device(self) -> dict[str, dict[str, dict[str, ExperimentCell]]]:
        """``{device: {workload: {column: cell}}}`` — the shape the
        table renderers (:func:`~repro.harness.tables.render_figure11`)
        consume."""
        grouped: dict[str, dict[str, dict[str, ExperimentCell]]] = {}
        for task, cell in zip(self.tasks, self.cells):
            grouped.setdefault(task.device, {}).setdefault(
                task.workload, {}
            )[task.column] = cell
        return grouped


def run_suite(
    workloads: Optional[Iterable[str]] = None,
    devices: Sequence[str] = ("K20c",),
    columns: Sequence[str] = COLUMNS,
    workers: Optional[int] = None,
    check: bool = True,
    observe: bool = False,
    batch_size: Optional[int] = None,
    cache_dir: Optional[str] = None,
    replay_cache: bool = True,
    full: bool = False,
    params: Optional[dict] = None,
) -> SuiteResult:
    """Plan and run an evaluation suite; the ``repro bench`` entry point."""
    tasks = plan_suite(workloads, devices, columns)
    if workers is None:
        workers = default_workers()
    start = time.perf_counter()
    cells, stats = run_cells(
        tasks,
        workers=workers,
        check=check,
        observe=observe,
        batch_size=batch_size,
        cache_dir=cache_dir,
        replay_cache=replay_cache,
        full=full,
        params=params,
    )
    wall_s = time.perf_counter() - start
    return SuiteResult(
        tasks=tasks,
        cells=cells,
        workers=workers,
        cache_stats=stats,
        wall_s=wall_s,
    )


def suite_bench_payload(result: SuiteResult) -> dict:
    """The simulated results of a suite as a plain nested dict.

    Contains every *deterministic* per-cell quantity — times, cycles,
    launch/block counts, output counts, per-stage task totals — and
    deliberately excludes :attr:`ExperimentCell.replayed` (cache
    provenance varies with worker count and cache warmth).  Serialising
    this with ``json.dumps(..., sort_keys=True)`` gives the byte-identity
    pin used by the determinism tests and benchmarks.
    """
    payload: dict = {}
    for task, cell in zip(result.tasks, result.cells):
        run = cell.result
        entry = {
            "model": cell.model,
            "time_ms": cell.time_ms,
            "scaled_ms": cell.scaled_ms,
            "cycles": run.cycles,
            "kernel_launches": run.device_metrics.kernel_launches,
            "blocks_launched": run.device_metrics.blocks_launched,
            "outputs": len(run.outputs),
            "stages": {
                name: {
                    "tasks": stats.tasks,
                    "items_emitted": stats.items_emitted,
                    "busy_cycles": stats.busy_cycles,
                }
                for name, stats in sorted(run.stage_stats.items())
            },
        }
        payload.setdefault(task.workload, {}).setdefault(
            task.device, {}
        )[task.column] = entry
    return payload
