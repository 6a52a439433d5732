"""Sharded process-pool experiment harness.

VersaPipe's evaluation is a grid — workloads × execution models ×
devices (Fig. 11, Fig. 13, Table 2) — and every cell of that grid
simulates on its own private device.  The fixed costs sit with the
workload, though: its inputs, its recorded trace, and the Megakernel
cell that its VersaPipe cell reuses
(:func:`~repro.harness.runner.run_versapipe`).  So this module gives
the pool (:mod:`repro.core.tuner.pool`) one shard per workload, holding
that workload's cells in plan order.  An idle worker takes the next
shard and runs it sequentially through
:func:`~repro.harness.runner.run_column`, and the cells are merged
back by their positions in the plan.  Each trace and each input set is
thus built in exactly one process at any worker count.

Determinism contract (pinned by ``tests/test_harness_pool.py``):

* ``workers=1`` is the classic serial loop over the canonical plan;
* any worker count produces byte-identical simulated results — cycles,
  stage stats, device metrics, merged reports and BENCH JSON — because
  every cell simulates on its own private device and sharding never
  changes which cell runs which computation.  The only per-cell field
  that may differ is :attr:`~repro.harness.runner.ExperimentCell
  .replayed` — cache *provenance*, not a simulated result — which is why
  :func:`suite_bench_payload` excludes it.

Workers share functional work across dispatches through a directory of
the ``traces`` store (``cache_dir=``, :mod:`repro.store`): each worker
keeps a private in-memory LRU over the shared directory, so a warm
cache lets every worker replay traces straight into its models without
executing any stage code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from ..core.tuner.pool import default_workers, map_shards
from ..gpu.specs import get_spec
from ..store import StoreStats, open_store
from ..workloads.registry import all_workloads, get_workload
from .runner import COLUMNS, ExperimentCell, run_column
from .tracecache import TraceCache


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
    cache_dir: Optional[str] = None
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
    """One shard's results: its cells plus its cache counter delta."""

    cells: list[ExperimentCell]
    cache_stats: StoreStats


def _run_cell_shard(
    payload: _SuitePayload, shard: list[CellTask]
) -> _ShardCells:
    """Worker entry point: run one workload's cells in plan order.

    Each VersaPipe cell gets the Megakernel cell of its row, if the
    shard ran one before it.  The cells leave their observers behind:
    an :class:`~repro.obs.Observer` does not pickle, and a cell that
    cannot cross the process boundary would send the whole dispatch
    back in-process.  With a ``cache_dir`` the shard uses the
    process-wide store for that directory
    (:func:`repro.store.open_store`): the persistent pool keeps workers
    alive across dispatches, so traces loaded or recorded once stay
    decoded in the worker's memory and later dispatches replay them with
    no disk or pickle work at all.  Without one the cache is private to
    the shard.  The returned counters are the *shard's* delta — never
    the store's lifetime totals, which under worker reuse span every
    dispatch the process ever served.
    """
    if payload.cache_dir:
        cache = open_store("traces", payload.cache_dir)
    else:
        cache = TraceCache()
    before = cache.stats()
    megakernels: dict[tuple[str, str], ExperimentCell] = {}
    cells = []
    for task in shard:
        spec = get_workload(task.workload)
        row = (task.workload, task.device)
        cell = run_column(
            spec,
            task.column,
            get_spec(task.device),
            payload.resolve_params(spec),
            check=payload.check,
            observe=payload.observe,
            cache=cache,
            megakernel=megakernels.get(row),
        )
        if task.column == "megakernel":
            megakernels[row] = cell
        cells.append(cell)
    return _ShardCells(
        cells=[replace(cell, observer=None) for cell in cells],
        cache_stats=cache.stats() - before,
    )


def run_cells(
    tasks: Sequence[CellTask],
    workers: Optional[int] = None,
    check: bool = True,
    observe: bool = False,
    cache_dir: Optional[str] = None,
    full: bool = False,
    params: Optional[dict] = None,
) -> tuple[list[ExperimentCell], StoreStats]:
    """Run every task, one shard per workload, across ``workers``
    processes.

    Each shard holds one workload's tasks in plan order; an idle worker
    takes the next shard, and the cells are merged back by plan
    position.  Returns ``(cells, cache_stats)`` with ``cells`` in task
    order and ``cache_stats`` the sum of every shard's cache counters.
    With ``workers=1`` (or one workload) everything runs in-process —
    the classic serial loop; any other count produces byte-identical
    cells.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payload = _SuitePayload(
        check=check,
        observe=observe,
        cache_dir=cache_dir,
        full=full,
        params=dict(params or {}),
    )
    positions: dict[str, list[int]] = {}
    for index, task in enumerate(tasks):
        positions.setdefault(task.workload, []).append(index)
    shards = [[tasks[i] for i in shard] for shard in positions.values()]
    shard_results = map_shards(_run_cell_shard, payload, shards, workers)
    merged: list[ExperimentCell] = [None] * len(tasks)  # type: ignore[list-item]
    stats = StoreStats()
    for shard, shard_result in zip(positions.values(), shard_results):
        for index, cell in zip(shard, shard_result.cells):
            merged[index] = cell
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
    cache_dir: Optional[str] = None,
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
        cache_dir=cache_dir,
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
                    "busy_cycles": stats.busy_cycles,
                }
                for name, stats in sorted(run.stage_stats.items())
            },
        }
        payload.setdefault(task.workload, {}).setdefault(
            task.device, {}
        )[task.column] = entry
    return payload
