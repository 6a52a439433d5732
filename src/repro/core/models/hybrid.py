"""The hybrid pipeline model and its engine (Sections 4.2.3 and 5).

:class:`HybridEngine` materialises a :class:`~repro.core.config.PipelineConfig`:
it creates the work-queue network, launches one runner per stage group
(persistent runners for ``megakernel`` / ``rtc`` / ``fine`` groups, a
host-driven runner for ``kbk`` groups), runs the event engine to
completion, and optionally performs the online adaptation of Section 7 —
when a group's persistent blocks all exit, the freed SMs are re-filled with
blocks of the stage group holding the most backlogged queues.

Every persistent model is a :class:`PlannedModel`: it builds one
:class:`PipelineConfig` (:meth:`PlannedModel.plan`) and runs it here.
:class:`HybridModel` runs a given plan; the megakernel, coarse and fine
models are special cases defined in their own modules.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...gpu.device import GPUDevice
from ...gpu.specs import GPUSpec
from ...obs.events import Adaptation
from ..config import PipelineConfig
from ..errors import ConfigurationError, ExecutionError
from ..executor import Executor
from ..pipeline import Pipeline
from ..result import RunResult
from ..runcontext import RunContext
from ..exec.kbk import KBKGroupRunner
from ..exec.persistent import PersistentGroupRunner
from .base import ExecutionModel, Level, ModelCharacteristics, register_model


class OnlineAdapter:
    """Re-fills freed SMs from the most backlogged stage group.

    Mirrors the paper's host-side adaptation: idle blocks raise a flag in
    pinned memory; the host notices, picks the stage group with the most
    stalled data items, and launches new kernels on the underutilised SMs.
    """

    #: Host reaction latency (flag write + host poll + relaunch), in us.
    REACTION_US = 30.0

    def __init__(self, ctx: RunContext, runners: list[PersistentGroupRunner]):
        self.ctx = ctx
        self.runners = runners
        self.adaptations = 0
        self._finished: set[int] = set()
        for runner in runners:
            runner.on_all_blocks_exited = self._on_group_exit

    def _on_group_exit(self, runner: PersistentGroupRunner) -> None:
        self._finished.add(id(runner))
        if self.ctx.done:
            return
        freed = runner.group.sm_ids
        # Backlog is read from the queue set's depth series — its one
        # tally, which the telemetry layer samples — not by probing queues.
        depth = self.ctx.depth_series
        candidates = [
            r
            for r in self.runners
            if id(r) not in self._finished
            and depth.total(r.group.stages) > 0
        ]
        if not candidates:
            return
        target = max(candidates, key=lambda r: depth.total(r.group.stages))
        delay = self.ctx.device.spec.us_to_cycles(self.REACTION_US)

        def relaunch() -> None:
            if self.ctx.done or self.ctx.is_quiescent(target.group.stages):
                return
            self.adaptations += 1
            device = self.ctx.device
            if device.obs is not None:
                device.obs.emit(
                    Adaptation(
                        t=device.engine.now,
                        freed_sms=tuple(freed),
                        stages=tuple(target.group.stages),
                        backlog=depth.total(target.group.stages),
                    )
                )
            target.launch(freed)

        self.ctx.device.engine.schedule_call(delay, relaunch)


class HybridEngine:
    """Executes one :class:`PipelineConfig` end to end."""

    def __init__(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        config: PipelineConfig,
    ) -> None:
        config.validate(pipeline, device.spec)
        self.pipeline = pipeline
        self.device = device
        self.config = config
        self.ctx = RunContext(
            pipeline,
            device,
            executor,
            policy=config.policy,
            queue_mode=config.queue_mode,
        )
        self.persistent_runners: list[PersistentGroupRunner] = []
        self.kbk_runners: list[KBKGroupRunner] = []
        for group in config.groups:
            if group.model == "kbk":
                self.kbk_runners.append(KBKGroupRunner(self.ctx, group))
            else:
                self.persistent_runners.append(
                    PersistentGroupRunner(self.ctx, group)
                )
        self.adapter: Optional[OnlineAdapter] = None
        if config.online_adaptation and self.persistent_runners:
            self.adapter = OnlineAdapter(self.ctx, self.persistent_runners)

    def _complete(self) -> bool:
        """The run is over only when the queues drained, every KBK group
        runner retired, and every issued launch finished — checking the
        launches alone would stop between a KBK wave's completion and the
        next wave's (event-scheduled) launch.

        The run's ``until`` predicate (:meth:`GPUDevice.run_engine`): it
        confirms each raise of the device's ``done_flag``, which each of
        the three legs raises where it turns true — the run context when
        its outstanding work reaches zero, the device when its last
        launch completes, a KBK group runner when it finishes."""
        return (
            self.ctx.total_outstanding == 0
            and self.device._incomplete_launches == 0
            and (
                not self.kbk_runners
                or all(r.finished for r in self.kbk_runners)
            )
        )

    def start(self, initial_items: dict[str, Sequence[object]]) -> None:
        """Insert initial work and launch every group's runner."""
        self.ctx.insert_initial(initial_items)
        for runner in self.persistent_runners:
            runner.launch()
        for runner in self.kbk_runners:
            runner.start()
        total_blocks = sum(r.total_blocks for r in self.persistent_runners)
        self.ctx.queue_set.contention_level = total_blocks / max(
            1, self.device.spec.num_sms
        )
        self.device.note_residency()

    def run(self, initial_items: dict[str, Sequence[object]]) -> RunResult:
        ctx = self.ctx
        self.start(initial_items)
        self.device.run_engine(until=self._complete)
        if not self._complete():
            self.device.synchronize(charge_host=False)  # raises diagnostics
        if not ctx.done:
            raise ExecutionError(
                f"pipeline did not drain: outstanding={ctx.outstanding}"
            )
        extras = {
            "persistent_blocks": sum(
                r.total_blocks for r in self.persistent_runners
            ),
            "config": self.config,
        }
        if self.adapter is not None:
            extras["online_adaptations"] = self.adapter.adaptations
        return RunResult(
            model="hybrid",
            time_ms=self.device.elapsed_ms,
            cycles=self.device.finalize_metrics().elapsed_cycles,
            outputs=ctx.outputs,
            device_metrics=self.device.metrics,
            stage_stats=ctx.stage_stats,
            queue_stats=ctx.queue_stats(),
            config_description=self.config.describe(),
            extras=extras,
        )


class PlannedModel(ExecutionModel):
    """An execution model that is one :class:`PipelineConfig`, run by
    :class:`HybridEngine`."""

    def plan(self, pipeline: Pipeline, spec: GPUSpec) -> PipelineConfig:
        """The plan this model runs ``pipeline`` with on ``spec``."""
        raise NotImplementedError

    def run(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        initial_items: dict[str, Sequence[object]],
    ) -> RunResult:
        engine = HybridEngine(
            pipeline, device, executor, self.plan(pipeline, device.spec)
        )
        result = engine.run(initial_items)
        result.model = self.name
        return result


@register_model
class HybridModel(PlannedModel):
    """VersaPipe's hybrid pipeline: stage groups, each with its own model."""

    name = "hybrid"
    characteristics = ModelCharacteristics(
        applicability=Level.GOOD,
        task_parallelism=Level.GOOD,
        hardware_usage=Level.GOOD,
        load_balance=Level.GOOD,
        data_locality=Level.GOOD,
        code_footprint=Level.GOOD,
        simplicity_control=Level.POOR,
    )

    def __init__(self, config: PipelineConfig) -> None:
        if config is None:
            raise ConfigurationError("HybridModel requires a PipelineConfig")
        self.config = config

    def plan(self, pipeline: Pipeline, spec: GPUSpec) -> PipelineConfig:
        return self.config
