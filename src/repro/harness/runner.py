"""Experiment runner: one (workload, model, device) cell at a time.

Used by every benchmark; results are plain dataclasses so the table
renderers and the tests can consume them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..core.executor import FunctionalExecutor, ReplayExecutor
from ..core.models import HybridModel, MegakernelModel
from ..core.models.base import ExecutionModel
from ..core.result import RunResult
from ..core.trace import Trace
from ..core.tuner.offline import OfflineTuner, TunerOptions, TunerReport
from ..core.tuner.profiler import (
    PipelineProfile,
    profile_from_trace,
    profile_pipeline,
    replay_placeholders,
)
from ..core.tuner.pool import map_shards
from ..gpu.device import GPUDevice
from ..gpu.specs import GPUSpec, K20C
from ..obs import Observer, RunReport, TunerStats
from ..obs.events import EventBus
from ..store import Store, StoreStats, open_store
from ..workloads.registry import WorkloadSpec, get_workload
from .tracecache import DEFAULT_TRACE_CACHE, TraceCache, workload_fingerprint


@dataclass
class ExperimentCell:
    """One measured cell of a paper table/figure."""

    workload: str
    model: str
    device: str
    time_ms: float
    #: Extrapolated to the paper's full workload size.
    scaled_ms: float
    result: RunResult = field(repr=False, default=None)
    #: True when the functional work was replayed from a cached trace.
    replayed: bool = False


def execute_model(
    spec: WorkloadSpec,
    pipeline,
    model: ExecutionModel,
    device: GPUDevice,
    params: object,
    batch_size: Optional[int] = None,
    cache: Optional[Store] = None,
) -> tuple[RunResult, bool]:
    """Run ``model`` with the cheapest executor that preserves the result.

    Without a ``cache`` the stages execute functionally (``batch_size``
    caps how many same-stage items each queue drain hands to
    ``Stage.execute_batch``).  With a cache, the first run of a
    (workload, params) cell records the full task trace — costs, children
    *and* output payloads — with the tuner's breadth-first walk
    (:func:`profile_pipeline`), and every run of the cell, the recording
    one included, replays it with no stage code at all.  Sharing the
    tuner's recorder keeps one node order per cache key, so a tuner
    report never depends on whether the harness filled the cache first.
    Both the batched and the replayed paths are schedule-preserving, so
    the returned :class:`RunResult` is identical either way.

    Returns ``(result, replayed)``; ``replayed`` is True when the trace
    came from the cache rather than from this call.
    """
    if cache is not None:
        key = workload_fingerprint(spec, params)
        trace = cache.get(key)
        replayed = trace is not None
        if trace is None:
            _profile, trace = profile_pipeline(
                pipeline,
                device.spec,
                spec.initial_items(params),
                batch_size=batch_size,
                record_outputs=True,
            )
            cache.put(key, trace)
        executor = ReplayExecutor(pipeline, trace)
        result = model.run(
            pipeline, device, executor, replay_placeholders(trace)
        )
        return result, replayed
    executor = FunctionalExecutor(pipeline, batch_size=batch_size)
    result = model.run(pipeline, device, executor, spec.initial_items(params))
    return result, False


def run_cell(
    spec: WorkloadSpec,
    model: ExecutionModel,
    gpu: GPUSpec,
    params: Optional[object] = None,
    check: bool = True,
    label: Optional[str] = None,
    observe: bool = False,
    batch_size: Optional[int] = None,
    cache: Optional[Store] = None,
) -> ExperimentCell:
    """Run one workload under one model on one simulated device.

    With ``observe=True`` an :class:`~repro.obs.Observer` is attached for
    the run and the derived :class:`~repro.obs.RunReport` lands on
    ``cell.result.report``, labelled ``workload/model/device``.  Pass a
    :class:`TraceCache` to enable compute-once/simulate-many trace reuse
    across models (see :func:`execute_model`).
    """
    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    device = GPUDevice(gpu)
    observer = Observer().attach(device) if observe else None
    result, replayed = execute_model(
        spec, pipeline, model, device, params, batch_size=batch_size,
        cache=cache,
    )
    if check:
        spec.check_outputs(params, result.outputs)
    if observer is not None:
        observer.finalize(
            result,
            label=f"{spec.name}/{label or result.model}/{gpu.name}",
        )
    scale = spec.time_scale(params)
    return ExperimentCell(
        workload=spec.name,
        model=label or result.model,
        device=gpu.name,
        time_ms=result.time_ms,
        scaled_ms=result.time_ms * scale,
        result=result,
        replayed=replayed,
    )


def run_shard_cells(
    cache_dir: Optional[str],
    run: Callable[[Store], list[ExperimentCell]],
) -> tuple[list[ExperimentCell], StoreStats]:
    """Run one pool shard's cells against its trace store.

    With a ``cache_dir`` the shard uses the process-wide store for that
    directory (:func:`repro.store.open_store`): the persistent pool keeps
    workers alive across dispatches, so traces loaded or recorded once
    stay decoded in the worker's memory and later dispatches replay them
    with no disk or pickle work at all.  Without one the cache is
    private to the dispatch.  Returns the cells and the *dispatch's*
    counter delta — never the store's lifetime totals, which under
    worker reuse span every dispatch the process ever served.
    """
    cache = open_store("traces", cache_dir) if cache_dir else TraceCache()
    before = cache.stats()
    cells = run(cache)
    return cells, cache.stats() - before


def _stats(cache: Optional[Store]) -> StoreStats:
    return cache.stats() if cache is not None else StoreStats()


def _publish_run(cache: Optional[Store], delta: StoreStats) -> None:
    """Record one entry-point call's counter delta as ``last_run``."""
    if isinstance(cache, TraceCache):
        cache.last_run = delta


def run_versapipe(
    spec: WorkloadSpec,
    gpu: GPUSpec,
    params: Optional[object] = None,
    check: bool = True,
    observe: bool = False,
    batch_size: Optional[int] = None,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
) -> ExperimentCell:
    """Run the workload as VersaPipe would: pick the fastest hybrid plan.

    The paper's VersaPipe numbers come from the auto-tuner's best
    configuration; mirroring that, this evaluates the workload's
    paper-described plan *and* the all-stage megakernel grouping (always in
    the tuner's search space) — both with online adaptation — and reports
    the faster.  ``cache.last_run`` is set to this call's cache-counter
    delta so ``repro stats`` reports per-run numbers.
    """
    from ..core.config import GroupConfig, PipelineConfig

    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    described = spec.versapipe_config(pipeline, gpu, params)
    candidates = [
        PipelineConfig(
            groups=described.groups,
            policy=described.policy,
            online_adaptation=True,
        ),
        PipelineConfig(
            groups=(
                GroupConfig(
                    stages=tuple(pipeline.stage_names),
                    model="megakernel",
                    sm_ids=tuple(range(gpu.num_sms)),
                ),
            ),
            online_adaptation=True,
        ),
    ]
    before = _stats(cache)
    best = None
    for config in candidates:
        cell = run_cell(
            spec,
            HybridModel(config),
            gpu,
            params,
            check=check,
            label="versapipe",
            observe=observe,
            batch_size=batch_size,
            cache=cache,
        )
        if best is None or cell.time_ms < best.time_ms:
            best = cell
    _publish_run(cache, _stats(cache) - before)
    return best


def run_workload_models(
    name: str,
    gpu: GPUSpec = K20C,
    params: Optional[object] = None,
    check: bool = True,
    observe: bool = False,
    batch_size: Optional[int] = None,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
    workers: Optional[int] = None,
) -> dict[str, ExperimentCell]:
    """The three Table 2 columns for one workload: baseline, megakernel,
    versapipe.

    By default the baseline run records the workload's task trace and the
    remaining columns replay it (compute once, simulate many); at
    ``workers=1``, pass ``cache=None`` to run every column functionally,
    with ``batch_size`` capping each ``Stage.execute_batch`` call.
    ``workers`` > 1 fans the three columns across worker processes, which
    always record and replay (sharing functional work through the
    cache's directory, if it has one), with byte-identical simulated
    results; ``cache.last_run`` always carries this call's cache-counter
    delta.
    """
    spec = get_workload(name)
    params = params if params is not None else spec.default_params()
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1:
        if cache is None or batch_size is not None:
            raise ValueError(
                "workers > 1 always records and replays traces: pass a "
                "cache and no batch_size"
            )
        from .pool import CellTask, run_cells  # lazy: pool imports us

        tasks = [
            CellTask(workload=spec.name, column=column, device=gpu.name)
            for column in ("baseline", "megakernel", "versapipe")
        ]
        cells, stats = run_cells(
            tasks,
            workers=workers,
            check=check,
            observe=observe,
            cache_dir=cache.root,
            params={spec.name: params},
        )
        _publish_run(cache, stats)
        return dict(zip(("baseline", "megakernel", "versapipe"), cells))
    before = _stats(cache)
    result = {
        "baseline": run_cell(
            spec,
            spec.baseline_model(params),
            gpu,
            params,
            check=check,
            label=spec.baseline_name,
            observe=observe,
            batch_size=batch_size,
            cache=cache,
        ),
        "megakernel": run_cell(
            spec,
            MegakernelModel(),
            gpu,
            params,
            check=check,
            observe=observe,
            batch_size=batch_size,
            cache=cache,
        ),
        "versapipe": run_versapipe(
            spec,
            gpu,
            params,
            check=check,
            observe=observe,
            batch_size=batch_size,
            cache=cache,
        ),
    }
    _publish_run(cache, _stats(cache) - before)
    return result


@dataclass
class TunedWorkload:
    """Everything the offline tuner produced for one workload."""

    workload: str
    device: str
    report: TunerReport
    profile: PipelineProfile
    trace: Trace
    profiled_tasks: int

    @property
    def stats(self) -> TunerStats:
        return TunerStats.from_report(
            self.report, label=f"{self.workload}/{self.device}"
        )


def tune_workload(
    name: str,
    gpu: GPUSpec = K20C,
    params: Optional[object] = None,
    options: Optional[TunerOptions] = None,
    bus: Optional[EventBus] = None,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
) -> TunedWorkload:
    """Profile one workload and run the offline search end to end.

    The one-stop entry point shared by ``repro tune``, the tuner
    benchmark and the CI gate: records the trace, builds the profile,
    and runs :class:`~repro.core.tuner.offline.OfflineTuner` with the
    given options (worker pool, profile cache, dominance pruning
    included).  A trace already recorded by the harness (same workload
    and params) is reused instead of re-running the stage code.
    """
    spec = get_workload(name)
    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    trace = cache.get(workload_fingerprint(spec, params)) if cache else None
    if trace is not None:
        profile = profile_from_trace(pipeline, gpu, trace)
    else:
        profile, trace = profile_pipeline(
            pipeline,
            gpu,
            spec.initial_items(params),
            record_outputs=cache is not None,
        )
        if cache is not None:
            cache.put(workload_fingerprint(spec, params), trace)
    tuner = OfflineTuner(
        pipeline, gpu, trace, profile=profile, options=options, bus=bus
    )
    report = tuner.tune()
    return TunedWorkload(
        workload=spec.name,
        device=gpu.name,
        report=report,
        profile=profile,
        trace=trace,
        profiled_tasks=trace.num_tasks,
    )


#: Fixed fan-in of the report reduction tree.  Chunk boundaries depend
#: only on the report count — never on the worker count — so serial and
#: parallel aggregation sum the same floats in the same order and the
#: merged report is byte-identical for any ``workers``.
_AGGREGATE_CHUNK = 8


def _aggregate_chunk(label: str, reports: list) -> RunReport:
    return RunReport.aggregate(reports, label=label)


def aggregate_reports(
    cells: Iterable[ExperimentCell],
    label: str = "sweep",
    workers: Optional[int] = None,
) -> RunReport:
    """Roll the observed cells of a sweep into one :class:`RunReport`.

    Cells run without ``observe=True`` carry no report and are skipped;
    the aggregate's ``runs`` field counts only the observed ones.  More
    than :data:`_AGGREGATE_CHUNK` reports reduce through a fixed-shape
    chunk tree (optionally fanned across ``workers`` processes); the
    tree's shape is a function of the report count alone, keeping the
    float sums — and therefore the result — independent of ``workers``.
    """
    reports = [
        cell.result.report
        for cell in cells
        if cell.result is not None and cell.result.report is not None
    ]
    if len(reports) <= _AGGREGATE_CHUNK:
        return RunReport.aggregate(reports, label=label)
    chunks = [
        reports[i : i + _AGGREGATE_CHUNK]
        for i in range(0, len(reports), _AGGREGATE_CHUNK)
    ]
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    partials = map_shards(_aggregate_chunk, label, chunks, workers)
    return RunReport.aggregate(partials, label=label)


def longest_stage_ms(
    spec: WorkloadSpec, gpu: GPUSpec, params: Optional[object] = None
) -> tuple[str, float]:
    """Table 2's "Longest Stage time": each stage measured standalone.

    Mirrors the paper's methodology (Section 8.5): replay each stage's
    recorded tasks alone on the whole device — a persistent single-stage
    kernel at its own occupancy, with no interference or queueing from the
    other stages — and report the slowest stage.
    """
    from ..core.config import GroupConfig, PipelineConfig
    from ..core.models.hybrid import HybridEngine

    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    _profile, trace = profile_pipeline(
        pipeline, gpu, spec.initial_items(params)
    )
    worst_stage, worst_ms = "", 0.0
    for stage_name in pipeline.stage_names:
        sub_trace = _single_stage_trace(trace, stage_name)
        if not sub_trace.initial.get(stage_name):
            continue
        solo = _solo_pipeline(pipeline.stage(stage_name))
        device = GPUDevice(gpu)
        executor = ReplayExecutor(solo, sub_trace)
        config = PipelineConfig(
            groups=(
                GroupConfig(
                    stages=(stage_name,),
                    model="megakernel",
                    sm_ids=tuple(range(gpu.num_sms)),
                ),
            )
        )
        engine = HybridEngine(solo, device, executor, config)
        result = engine.run(replay_placeholders(sub_trace))
        if result.time_ms > worst_ms:
            worst_stage, worst_ms = stage_name, result.time_ms
    return worst_stage, worst_ms


def _solo_pipeline(stage):
    """A one-stage pipeline whose stage mirrors ``stage``'s resources.

    The replayed trace carries the recorded costs, so the proxy never
    executes; it only contributes kernel-resource metadata.
    """
    from ..core.pipeline import Pipeline as PipelineCls
    from ..core.stage import Stage as StageCls

    proxy_cls = type(
        f"Solo_{stage.name}",
        (StageCls,),
        {
            "name": stage.name,
            "emits_to": (),
            "threads_per_item": stage.threads_per_item,
            "threads_per_block": stage.threads_per_block,
            "registers_per_thread": stage.registers_per_thread,
            "shared_mem_per_block": stage.shared_mem_per_block,
            "code_bytes": stage.code_bytes,
            "item_bytes": stage.item_bytes,
        },
    )
    return PipelineCls([proxy_cls()], name=f"solo:{stage.name}")


def _single_stage_trace(trace: Trace, stage_name: str) -> Trace:
    """A trace containing only ``stage_name``'s tasks, as childless roots."""
    from ..core.trace import TraceNode

    sub = Trace()
    for node in trace.nodes:
        if node.stage != stage_name:
            continue
        new_id = len(sub.nodes)
        sub.nodes.append(
            TraceNode(
                node_id=new_id,
                stage=stage_name,
                cost=node.cost,
                children=(),
                n_outputs=0,
            )
        )
        sub.initial.setdefault(stage_name, []).append(new_id)
    return sub
