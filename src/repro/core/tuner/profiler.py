"""Profiling component (Section 7).

Expands the pipeline's task graph once (recording a replayable trace) and
derives per-stage workload characteristics.  The paper's tuner needs one
metric above all: *the maximum count of blocks that can run on an SM for
each stage* — here that comes straight from the occupancy calculator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ...gpu.occupancy import max_blocks_per_sm
from ...gpu.specs import GPUSpec
from ...obs.depth import DepthSeries
from ..executor import RecordingExecutor
from ..pipeline import Pipeline
from ..trace import Trace


@dataclass(frozen=True)
class StageProfile:
    """Workload characteristics of one stage."""

    name: str
    max_blocks_per_sm: int
    tasks: int
    total_cycles: float
    mean_cycles: float
    registers_per_thread: int
    #: Threads participating per task (the paper's ``threadNum``); lets
    #: the dominance bound convert per-thread cycles into SM lane work.
    threads_per_item: int = 1

    @property
    def weight(self) -> float:
        """Load estimate used for proportional SM allocation."""
        return self.total_cycles

    @property
    def thread_cycles(self) -> float:
        """Total SM lane work of the stage (cycles x threads per task)."""
        return self.total_cycles * self.threads_per_item


@dataclass(frozen=True)
class PipelineProfile:
    stages: dict[str, StageProfile]
    total_tasks: int

    def weights(self) -> dict[str, float]:
        return {name: profile.weight for name, profile in self.stages.items()}


@dataclass(frozen=True)
class QueuePressure:
    """Backlog summary of a run, read from a queue set's depth series.

    The tuner attaches this to evaluated configurations: a plan whose
    peak backlog dwarfs another's at similar run time is the one to
    revisit when the online adapter reports starvation.
    """

    peak_per_stage: dict[str, int]
    residual_per_stage: dict[str, int]


def queue_pressure(depth: DepthSeries) -> QueuePressure:
    """Summarise a finished run's :class:`DepthSeries`."""
    return QueuePressure(
        peak_per_stage=dict(depth.peak),
        residual_per_stage=dict(depth.current),
    )


def profile_pipeline(
    pipeline: Pipeline,
    spec: GPUSpec,
    initial_items: dict[str, Sequence[object]],
    record_outputs: bool = False,
) -> tuple[PipelineProfile, Trace]:
    """Record a trace of the full task graph and summarise it per stage.

    The expansion is a breadth-first walk of the task graph — no simulated
    device is needed because the graph is schedule-independent.  Maximal
    same-stage prefixes of the frontier drain through ``run_batch``; that
    preserves both the expansion order and the node-id assignment of the
    scalar walk (children are appended per parent, in parent order), so
    trace fingerprints are unchanged.

    With ``record_outputs=True`` the trace also keeps the real output
    payloads, making it reusable by the harness's replay cache.
    """
    executor = RecordingExecutor(pipeline, record_outputs=record_outputs)
    frontier: deque[tuple[str, object]] = deque()
    for stage_name, payloads in initial_items.items():
        pipeline.stage(stage_name)  # validates the name
        for payload in payloads:
            frontier.append(
                (stage_name, executor.wrap_initial(stage_name, payload))
            )
    while frontier:
        stage_name, item = frontier.popleft()
        batch = [item]
        while frontier and frontier[0][0] == stage_name:
            batch.append(frontier.popleft()[1])
        for result in executor.run_batch(stage_name, batch):
            frontier.extend(result.children)
    return profile_from_trace(pipeline, spec, executor.trace), executor.trace


def profile_from_trace(
    pipeline: Pipeline, spec: GPUSpec, trace: Trace
) -> PipelineProfile:
    """Summarise an already-recorded trace per stage.

    The profile depends only on the trace and the pipeline's kernel
    resources, so a trace cached by the harness can be re-profiled
    without re-running any stage code.
    """
    task_counts = trace.tasks_per_stage()
    work = trace.work_per_stage()
    profiles: dict[str, StageProfile] = {}
    for name in pipeline.stage_names:
        stage = pipeline.stage(name)
        tasks = task_counts.get(name, 0)
        total = work.get(name, 0.0)
        profiles[name] = StageProfile(
            name=name,
            max_blocks_per_sm=max_blocks_per_sm(stage.kernel_spec(), spec),
            tasks=tasks,
            total_cycles=total,
            mean_cycles=total / tasks if tasks else 0.0,
            registers_per_thread=stage.registers_per_thread,
            threads_per_item=stage.threads_per_item,
        )
    return PipelineProfile(stages=profiles, total_tasks=trace.num_tasks)


def replay_placeholders(trace: Trace) -> dict[str, list[object]]:
    """Initial-items mapping suitable for a ReplayExecutor-driven run.

    The replay executor resolves initial items by recorded order, so the
    payloads are irrelevant; only the multiplicity per stage matters.
    """
    return {stage: [None] * len(ids) for stage, ids in trace.initial.items()}
