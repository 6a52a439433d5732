"""Experiment runner: one (workload, model, device) cell at a time.

Used by every benchmark; results are plain dataclasses so the table
renderers and the tests can consume them uniformly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..core.executor import FunctionalExecutor, ReplayExecutor
from ..core.models import HybridModel, MegakernelModel, get_model
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
from ..gpu.device import GPUDevice
from ..gpu.specs import GPUSpec, K20C
from ..obs import Observer, RunReport
from ..store import Store
from ..workloads.registry import WorkloadSpec, get_workload
from .tracecache import DEFAULT_TRACE_CACHE, workload_fingerprint


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
    #: The observer attached for an observed run (``None`` otherwise); it
    #: holds the run's events for the trace export.  It does not pickle,
    #: so cells sent between processes leave it behind.
    observer: Optional[Observer] = field(
        repr=False, default=None, compare=False
    )


def execute_model(
    spec: WorkloadSpec,
    pipeline,
    model: ExecutionModel,
    device: GPUDevice,
    params: object,
    cache: Optional[Store] = None,
) -> tuple[RunResult, bool, Optional[Trace]]:
    """Run ``model`` with the cheapest executor that preserves the result.

    Without a ``cache`` the stages execute functionally, each queue
    drain handed whole to ``Stage.execute_batch``.  With a cache, the
    first run of a (workload, params) cell records the full task trace —
    costs, children *and* output payloads — with the tuner's
    breadth-first walk (:func:`profile_pipeline`), and every run of the
    cell, the recording one included, replays it with no stage code at
    all.  Sharing the tuner's recorder keeps one node order per cache
    key, so a tuner report never depends on whether the harness filled
    the cache first.  Both the functional and the replayed paths are
    schedule-preserving, so the returned :class:`RunResult` is identical
    either way.

    Returns ``(result, replayed, trace)``: ``replayed`` is True when the
    trace came from the cache rather than from this call, and ``trace``
    is the trace the run replayed (``None`` for a functional run), which
    :func:`check_cell` grades the outputs against.
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
                record_outputs=True,
            )
            cache.put(key, trace)
        executor = ReplayExecutor(pipeline, trace)
        result = model.run(
            pipeline, device, executor, replay_placeholders(trace)
        )
        return result, replayed, trace
    executor = FunctionalExecutor(pipeline)
    result = model.run(pipeline, device, executor, spec.initial_items(params))
    return result, False, None


def check_cell(
    spec: WorkloadSpec,
    params: object,
    result: RunResult,
    trace: Optional[Trace],
    model: str,
) -> None:
    """Grade one run's outputs, checking each recording only once.

    A functional run (``trace`` is ``None``) goes through
    ``spec.check_outputs`` in full.  A replayed run is held to its
    recording instead: the trace's recorded outputs pass
    ``spec.check_outputs`` once (:meth:`Trace.checked_output_ids`), and
    every replay, the recording one included, must deliver exactly that
    multiset of objects, so a lost or duplicated task still fails.
    Raises :class:`AssertionError`, like ``check_outputs`` itself.
    """
    if trace is None:
        spec.check_outputs(params, result.outputs)
        return
    expected = trace.checked_output_ids(
        lambda outputs: spec.check_outputs(params, outputs)
    )
    delivered = Counter(map(id, result.outputs))
    if delivered != expected:
        missing = sum((expected - delivered).values())
        extra = sum((delivered - expected).values())
        raise AssertionError(
            f"{spec.name}/{model}: outputs differ from the checked "
            f"recording: {missing} missing, {extra} extra"
        )


def run_cell(
    spec: WorkloadSpec,
    model: ExecutionModel,
    gpu: GPUSpec,
    params: Optional[object] = None,
    check: bool = True,
    label: Optional[str] = None,
    observe: bool = False,
    cache: Optional[Store] = None,
) -> ExperimentCell:
    """Run one workload under one model on one simulated device.

    With ``observe=True`` an :class:`~repro.obs.Observer` is attached for
    the run and kept on ``cell.observer``, and the derived
    :class:`~repro.obs.RunReport` lands on ``cell.result.report``,
    labelled ``workload/model/device``.  Pass a
    :class:`~repro.harness.tracecache.TraceCache` to enable
    compute-once/simulate-many trace reuse across models (see
    :func:`execute_model`).  ``check`` grades the
    outputs with :func:`check_cell`: every functional run in full, and a
    replayed trace once, after which each replay only has to deliver
    the recorded outputs.
    """
    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    device = GPUDevice(gpu)
    observer = Observer().attach(device) if observe else None
    result, replayed, trace = execute_model(
        spec, pipeline, model, device, params, cache=cache
    )
    if check:
        check_cell(spec, params, result, trace, label or result.model)
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
        observer=observer,
    )


def run_versapipe(
    spec: WorkloadSpec,
    gpu: GPUSpec,
    params: Optional[object] = None,
    check: bool = True,
    observe: bool = False,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
    megakernel: Optional[ExperimentCell] = None,
) -> ExperimentCell:
    """Run the workload as VersaPipe would: the faster of two plans.

    The paper's VersaPipe numbers come from the auto-tuner's best
    configuration.  Mirroring that, the cell is the faster of the
    workload's paper-described plan, run with online adaptation, and the
    all-stage megakernel grouping, which is always in the tuner's search
    space; the described plan wins ties.  That grouping is the Megakernel
    column itself: :class:`MegakernelModel` builds the same one-group,
    all-SM plan with :class:`~repro.core.config.PipelineConfig`'s default
    policy and queue mode, and online adaptation never relaunches a
    one-group plan (when its group exits, no other group is left).  So
    only the described plan is simulated here.  ``megakernel`` is the
    Megakernel column's cell for the same spec, device, params, ``check``
    and ``observe``; without one, this call runs it.  When it wins, the
    result is a copy labelled ``versapipe`` that carries the Megakernel
    run's observer (an observed report as
    ``<workload>/versapipe/<device>``), and the given cell is left as it
    was.
    """
    params = params if params is not None else spec.default_params()
    pipeline = spec.build_pipeline(params)
    described = spec.versapipe_config(pipeline, gpu, params)
    cell = run_cell(
        spec,
        HybridModel(replace(described, online_adaptation=True)),
        gpu,
        params,
        check=check,
        label="versapipe",
        observe=observe,
        cache=cache,
    )
    if megakernel is None:
        megakernel = run_cell(
            spec,
            MegakernelModel(),
            gpu,
            params,
            check=check,
            observe=observe,
            cache=cache,
        )
    if megakernel.time_ms < cell.time_ms:
        report = megakernel.result.report
        if report is not None:
            label = f"{spec.name}/versapipe/{gpu.name}"
            report = replace(report, label=label)
        cell = replace(
            megakernel,
            model="versapipe",
            result=replace(megakernel.result, report=report),
        )
    return cell


#: Every column name :func:`run_column` accepts, in ``repro list`` order.
#: ``versapipe`` and ``baseline`` depend on the workload; every other
#: name is a registered execution model
#: (:func:`~repro.core.models.get_model`).
MODEL_NAMES = (
    "rtc",
    "kbk",
    "megakernel",
    "coarse",
    "fine",
    "versapipe",
    "dynamic_parallelism",
    "baseline",
)

#: The Table 2 columns, in the order a row runs them: the VersaPipe
#: cell reuses the Megakernel cell before it.
COLUMNS = ("baseline", "megakernel", "versapipe")


def run_column(
    spec: WorkloadSpec,
    column: str,
    gpu: GPUSpec,
    params: Optional[object] = None,
    check: bool = True,
    observe: bool = False,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
    megakernel: Optional[ExperimentCell] = None,
) -> ExperimentCell:
    """Run one cell by column name; the only map from a name to a model.

    ``baseline`` is the workload's baseline model, labelled with its
    name; ``versapipe`` is :func:`run_versapipe`, which takes
    ``megakernel`` as its second candidate; every other name in
    :data:`MODEL_NAMES` is that registered model with its defaults.
    """
    if column not in MODEL_NAMES:
        raise ValueError(f"unknown column: {column!r}")
    params = params if params is not None else spec.default_params()
    if column == "versapipe":
        cell = run_versapipe(
            spec,
            gpu,
            params,
            check=check,
            observe=observe,
            cache=cache,
            megakernel=megakernel,
        )
    else:
        label: Optional[str] = None
        if column == "baseline":
            model, label = spec.baseline_model(params), spec.baseline_name
        else:
            model = get_model(column)()
        cell = run_cell(
            spec,
            model,
            gpu,
            params,
            check=check,
            label=label,
            observe=observe,
            cache=cache,
        )
    return cell


def run_workload_models(
    name: str,
    gpu: GPUSpec = K20C,
    params: Optional[object] = None,
    check: bool = True,
    observe: bool = False,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
) -> dict[str, ExperimentCell]:
    """The three Table 2 columns for one workload: baseline, megakernel,
    versapipe.

    By default the baseline run records the workload's task trace and the
    remaining columns replay it (compute once, simulate many); pass
    ``cache=None`` to run every column functionally.  The VersaPipe
    column takes the Megakernel cell as its second candidate
    (:func:`run_versapipe`), so each column is one simulated run.
    """
    spec = get_workload(name)
    params = params if params is not None else spec.default_params()
    cells: dict[str, ExperimentCell] = {}
    for column in COLUMNS:
        cells[column] = run_column(
            spec,
            column,
            gpu,
            params,
            check=check,
            observe=observe,
            cache=cache,
            megakernel=cells.get("megakernel"),
        )
    return cells


@dataclass
class TunedWorkload:
    """Everything the offline tuner produced for one workload."""

    workload: str
    device: str
    report: TunerReport
    profile: PipelineProfile
    trace: Trace
    profiled_tasks: int


def tune_workload(
    name: str,
    gpu: GPUSpec = K20C,
    params: Optional[object] = None,
    options: Optional[TunerOptions] = None,
    cache: Optional[Store] = DEFAULT_TRACE_CACHE,
) -> TunedWorkload:
    """Profile one workload and run the offline search end to end.

    The one-stop entry point shared by ``repro tune``, the tuner
    benchmark and the CI gate: records the trace, builds the profile,
    and runs :class:`~repro.core.tuner.offline.OfflineTuner` with the
    given options (worker pool, search cache, dominance pruning
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
    tuner = OfflineTuner(pipeline, gpu, trace, profile=profile, options=options)
    report = tuner.tune()
    return TunedWorkload(
        workload=spec.name,
        device=gpu.name,
        report=report,
        profile=profile,
        trace=trace,
        profiled_tasks=trace.num_tasks,
    )


def aggregate_reports(
    cells: Iterable[ExperimentCell], label: str = "sweep"
) -> RunReport:
    """Roll the observed cells of a sweep into one :class:`RunReport`.

    Cells run without ``observe=True`` carry no report and are skipped;
    the aggregate's ``runs`` field counts only the observed ones.  The
    reports fold left to right in cell order.  The harness returns cells
    in plan order for any worker count, so the aggregate is the same for
    any worker count too.
    """
    return RunReport.aggregate(
        (
            cell.result.report
            for cell in cells
            if cell.result is not None and cell.result.report is not None
        ),
        label=label,
    )


def longest_stage_ms(
    spec: WorkloadSpec, gpu: GPUSpec, params: Optional[object] = None
) -> tuple[str, float]:
    """Table 2's "Longest Stage time": each stage measured standalone.

    Mirrors the paper's methodology (Section 8.5): replay each stage's
    recorded tasks alone on the whole device — a persistent single-stage
    kernel at its own occupancy, with no interference or queueing from the
    other stages — and report the slowest stage.
    """
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
        result = MegakernelModel().run(
            solo,
            GPUDevice(gpu),
            ReplayExecutor(solo, sub_trace),
            replay_placeholders(sub_trace),
        )
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
