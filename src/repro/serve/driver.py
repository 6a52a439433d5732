"""The open-loop serving driver: inject timed requests into a pipeline.

Batch runs hand the engine all of its work up front and measure the
makespan.  Serving inverts that: a seeded arrival process decides *when*
each request enters, the persistent pipeline stays resident across the
idle gaps, and the measurement is the per-request latency distribution.

One request is one entry item (cycled round-robin through the
workload's initial-item template) plus everything that item spawns
downstream; it completes when its last descendant finishes.  The tasks
below an entry item depend only on the workload's parameters, never on
when the item arrives or how it is scheduled.  So each cell runs the
stage code once: :func:`record_template` records the whole template
breadth-first (no simulated device), and every request replays its
entry item's recorded subtree.  Arrival times come from the driver's
schedule, not from the recording, which supplies only each task's cost
and children.

Four pieces make that work on the unmodified execution engine:

* **template replay** — request ``rid`` enters as ``RequestItem(rid,
  entry_node_id)`` and a :class:`~repro.core.executor.ReplayExecutor`
  hands out the recorded costs and children; an entry served to several
  requests is replayed once per request;
* **arrival reservations** — the full (deterministic) arrival count is
  registered with :meth:`RunContext.expect_arrivals` before the engine
  runs, so the quiescence detector never confuses "queues momentarily
  empty" with "run over" (see the run-context docs);
* **request tagging** — :class:`RequestTaggingExecutor` wraps every
  in-flight payload in a :class:`~repro.obs.spans.RequestItem`, so each
  task knows which request it descends from at O(1);
* **request tracking** — a :class:`~repro.obs.spans.RequestTracker` on
  the run context turns queue enqueue/dequeue/complete callbacks into
  per-stage spans and end-to-end latencies, feeding a
  :class:`~repro.serve.report.ServeReport` in deterministic engine
  order.

The request's host-to-device input copy is charged to the device's host
timeline at arrival.  Each cell records inside its own call and keeps
the recording to itself: serving never reads or writes the process-wide
trace cache (:data:`~repro.harness.tracecache.DEFAULT_TRACE_CACHE`).
Recording a template costs 1-21 ms at quick sizes (reyes to
face_detection, on a 2-vCPU x86 VM), and a shared store would let an
untimed warm-up pre-fill what every ``repro serve`` invocation pays.

A cell runs one resident plan (:func:`build_serve_plan`) in one engine
run.  It reacts to load only per request and per queue pop, through
admission control and dynamic batching (:mod:`repro.serve.controller`).

Serving does not check outputs.  A workload's ``check_outputs`` grades
a batch run's outputs as a whole, one result per input item, and a
serving cell has no such set: requests cycle through the entry items,
so an item is served any number of times or not at all, and admission
may shed requests.  The template's stage code is the code the harness
checks (docs/harness.md, "Checking").
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..core.config import GroupConfig, PipelineConfig
from ..core.errors import ConfigurationError, ExecutionError
from ..core.executor import ExecResult, Executor, ReplayExecutor
from ..core.models.hybrid import HybridEngine
from ..core.models.sm_bound import default_fine_block_map, split_sms_proportionally
from ..core.pipeline import Pipeline
from ..core.trace import Trace
from ..core.tuner.profiler import profile_pipeline
from ..gpu.device import GPUDevice
from ..gpu.specs import GPUSpec, get_spec
from ..obs import Observer
from ..obs.spans import RequestItem, RequestTracker
from ..workloads.registry import WorkloadSpec, get_workload
from .arrivals import ArrivalProcess, parse_arrival_spec
from .controller import (
    AdmissionSpecError,
    ServeController,
    parse_admission_spec,
)
from .report import ServeReport
from .slo import SLOTracker

#: Pipeline plans the serving driver can build.  The host-driven models
#: (rtc/kbk standalone, dynamic parallelism, per-workload baselines)
#: relaunch kernels per wave and do not keep the pipeline resident, so
#: they cannot absorb open-loop arrivals.
SERVE_MODELS = ("versapipe", "megakernel", "coarse", "fine")


class RequestTaggingExecutor(Executor):
    """Wraps an executor so every in-flight item carries its request id.

    Tasks see the unwrapped payloads; children are re-wrapped with the
    parent's request id before they re-enter the queues.  The wrapper
    preserves the inner executor's costs, emissions and outputs exactly,
    so the simulated schedule matches a batch run of the same items.
    Only :meth:`run_task` is wrapped: the inherited ``run_batch`` and
    ``run_inline`` go through it.
    """

    def __init__(self, inner: Executor) -> None:
        super().__init__(inner.pipeline)
        self.inner = inner

    def wrap_initial(self, stage: str, payload: object) -> object:
        raise ExecutionError(
            "serving runs inject work via RunContext.deliver_arrival, "
            "not insert_initial"
        )

    def run_task(self, stage: str, item: RequestItem) -> ExecResult:
        result = self.inner.run_task(stage, item.inner)
        rid = item.rid
        result.children = [
            (target, RequestItem(rid, child))
            for target, child in result.children
        ]
        return result


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run needs (picklable for the harness)."""

    workload: str
    arrival_spec: str
    duration_ms: float
    slo_ms: float
    model: str = "versapipe"
    device: str = "k20c"
    seed: int = 0
    window_ms: float = 1.0
    full: bool = False
    #: Admission policy spec: ``none`` / ``drop-tail:CAP`` /
    #: ``slo-ewma[:MARGIN]`` (see :mod:`repro.serve.controller`).
    admission: str = "none"
    #: Dynamic-batching ceiling; ``None`` keeps static pop capacities.
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.model not in SERVE_MODELS:
            raise ConfigurationError(
                f"model {self.model!r} cannot serve open-loop arrivals; "
                f"choose from {SERVE_MODELS}"
            )
        if self.duration_ms <= 0:
            raise ConfigurationError("duration_ms must be > 0")
        if self.slo_ms <= 0:
            raise ConfigurationError("slo_ms must be > 0")
        try:
            parse_admission_spec(self.admission)
        except AdmissionSpecError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.max_batch is not None and self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")


def build_serve_plan(
    spec: WorkloadSpec, pipeline, gpu: GPUSpec, params: object, model: str
) -> PipelineConfig:
    """The resident :class:`PipelineConfig` for one serve model name.

    ``versapipe`` serves the workload's paper-described plan as it is,
    with online adaptation off (docs/serving.md says why).
    """
    all_sms = tuple(range(gpu.num_sms))
    stages = tuple(pipeline.stage_names)
    if model == "versapipe":
        return spec.versapipe_config(pipeline, gpu, params)
    if model == "megakernel":
        groups = (
            GroupConfig(stages=stages, model="megakernel", sm_ids=all_sms),
        )
    elif model == "coarse":
        assignment = split_sms_proportionally(gpu.num_sms, stages, None)
        groups = tuple(
            GroupConfig(
                stages=(stage,),
                model="megakernel",
                sm_ids=assignment[stage],
            )
            for stage in stages
        )
    elif model == "fine":
        groups = (
            GroupConfig(
                stages=stages,
                model="fine",
                sm_ids=all_sms,
                block_map=default_fine_block_map(pipeline, gpu, stages),
            ),
        )
    else:
        raise ConfigurationError(
            f"model {model!r} cannot serve open-loop arrivals; choose "
            f"from {SERVE_MODELS}"
        )
    return PipelineConfig(groups=groups)


@dataclass(frozen=True)
class RequestTemplate:
    """One serving cell's request template, recorded once.

    ``trace`` holds the workload's initial items and every task they
    spawn.
    """

    pipeline: Pipeline
    trace: Trace

    @property
    def entries(self) -> list[tuple[str, int]]:
        """``(entry stage, entry node id)`` per template item, in the
        order requests cycle through them."""
        return [
            (stage, node)
            for stage, nodes in self.trace.initial.items()
            for node in nodes
        ]


def _resolve(config: ServeConfig) -> tuple[WorkloadSpec, GPUSpec, object]:
    spec = get_workload(config.workload)
    params = spec.default_params() if config.full else spec.quick_params()
    return spec, get_spec(config.device), params


def record_template(
    spec: WorkloadSpec, gpu: GPUSpec, params: object
) -> RequestTemplate:
    """Run the workload's initial items through the stage code once.

    The recording is the tuner's breadth-first walk
    (:func:`~repro.core.tuner.profiler.profile_pipeline`): no simulated
    device, and the same node order and ids as every other recording of
    this workload.  Outputs are not kept; serving never checks them.
    """
    pipeline = spec.build_pipeline(params)
    _profile, trace = profile_pipeline(
        pipeline, gpu, spec.initial_items(params)
    )
    if not trace.initial:
        raise ConfigurationError(
            f"workload {spec.name!r} has no initial items to serve"
        )
    return RequestTemplate(pipeline=pipeline, trace=trace)


def serve_workload(
    config: ServeConfig,
    observer: Optional[Observer] = None,
    arrival: Optional[ArrivalProcess] = None,
) -> ServeReport:
    """Run one open-loop serving cell and return its report.

    The arrival schedule is drawn up front from a
    ``random.Random(seed)`` (open loop), and the cell runs its resident
    plan in one engine run:

    * every arrival fire first consults the admission policy — a shed
      request releases its reservation, is counted in the shed ledgers,
      and never touches a queue;
    * with ``max_batch`` set, the dynamic batch former governs every
      queue pop through ``RunContext.batch_governor``.

    A config with admission ``none`` and no ``max_batch`` admits every
    request under its static plan.  The cell records its template once
    and replays it for every request.

    Deterministic: everything is a function of the seeded schedule and
    simulated state, and the report's histograms accumulate in
    engine-event order, so the same :class:`ServeConfig` always
    produces a byte-identical :meth:`ServeReport.payload` for any
    ``--workers`` count.  Pass an :class:`~repro.obs.Observer` to also
    capture the flow-linked Chrome trace.
    """
    spec, gpu, params = _resolve(config)
    template = record_template(spec, gpu, params)
    pipeline = template.pipeline
    if arrival is None:
        arrival = parse_arrival_spec(config.arrival_spec)
    plan = build_serve_plan(spec, pipeline, gpu, params, config.model)
    controller = ServeController(
        admission=config.admission,
        slo_ms=config.slo_ms,
        max_batch=config.max_batch,
    )

    report = ServeReport(
        label=f"{spec.name}/{config.model}/{gpu.name}",
        workload=spec.name,
        model=config.model,
        device=gpu.name,
        arrival=arrival.describe(),
        duration_ms=config.duration_ms,
        window_ms=config.window_ms,
        arrivals=_window(config.window_ms),
        completions=_window(config.window_ms),
        good_completions=_window(config.window_ms),
        sheds=_window(config.window_ms),
        slo=SLOTracker(slo_ms=config.slo_ms),
    )
    cycles_to_ms = gpu.cycles_to_ms

    rng = random.Random(config.seed)
    times_ms = arrival.times(config.duration_ms, rng)
    if not times_ms:
        # Nothing arrives: no engine runs, and elapsed_ms stays 0.
        return report
    entries = template.entries
    stage_bytes = {
        stage: pipeline.stage(stage).item_bytes for stage, _ in entries
    }
    arrive_cycles = [gpu.us_to_cycles(t * 1000.0) for t in times_ms]
    counts = Counter(
        entries[rid % len(entries)][0] for rid in range(len(arrive_cycles))
    )

    device = GPUDevice(gpu)
    if observer is not None:
        observer.attach(device)
    engine = HybridEngine(
        pipeline,
        device,
        RequestTaggingExecutor(ReplayExecutor(pipeline, template.trace)),
        plan,
    )
    ctx = engine.ctx
    controller.bind(ctx)
    predictor = controller.predictor

    def on_visit(
        stage: str, wait_cycles: float, service_cycles: float
    ) -> None:
        wait_ms = cycles_to_ms(wait_cycles)
        service_ms = cycles_to_ms(service_cycles)
        report.observe_visit(stage, wait_ms, service_ms)
        if predictor is not None:
            predictor.note_visit(stage, wait_ms, service_ms)

    def on_complete(span) -> None:
        report.observe_complete(
            cycles_to_ms(span.latency_cycles),
            cycles_to_ms(span.completion_t),
        )
        if predictor is not None:
            predictor.note_request(
                {stage: totals.visits for stage, totals in span.stages.items()}
            )

    tracker = RequestTracker(
        bus=device.obs, on_visit=on_visit, on_complete=on_complete
    )
    ctx.request_tracker = tracker
    ctx.expect_arrivals(counts)

    def fire(rid: int) -> None:
        stage, node = entries[rid % len(entries)]
        at = arrive_cycles[rid]
        report.observe_arrival(cycles_to_ms(at))
        if controller.should_shed():
            now = device.engine.now
            report.observe_shed(cycles_to_ms(now))
            tracker.shed(rid, stage, now)
            ctx.release_arrivals({stage: 1})
        else:
            device.memcpy_h2d(stage_bytes[stage])
            tracker.begin(rid, stage, at)
            ctx.deliver_arrival(stage, RequestItem(rid, node))

    for rid, at in enumerate(arrive_cycles):
        device.engine.schedule_call_at(at, fire, rid)

    engine.run({})
    if tracker.in_flight:
        raise ExecutionError(
            f"{tracker.in_flight} request(s) never completed "
            "(tracker/quiescence mismatch)"
        )
    report.elapsed_ms = cycles_to_ms(
        max(device.engine.now, device.host_time)
    )
    return report


def _window(window_ms: float):
    from ..obs.hist import WindowSeries

    return WindowSeries(window_ms=window_ms)
