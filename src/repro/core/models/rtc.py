"""Run-to-completion model (Section 4.1).

All stages are fused into a single kernel; each thread group takes an input
item through the whole pipeline (including any recursive re-entries)
without ever touching a queue.  Simple, good locality, but: the fused
kernel pays the maximum register pressure of any stage, the code footprint
of all of them, exposes no task parallelism, and cannot express global
synchronisation between stages.
"""

from __future__ import annotations

from typing import Sequence

from ...gpu.device import GPUDevice
from ...gpu.kernel import fuse_specs
from ..errors import ModelNotApplicableError
from ..exec.kbk import WaveBatch, wave_program
from ..executor import Executor
from ..pipeline import Pipeline
from ..result import RunResult
from ..runcontext import StageRunStats
from .base import ExecutionModel, Level, ModelCharacteristics, register_model


@register_model
class RTCModel(ExecutionModel):
    name = "rtc"
    characteristics = ModelCharacteristics(
        applicability=Level.POOR,
        task_parallelism=Level.POOR,
        hardware_usage=Level.POOR,
        load_balance=Level.FAIR,
        data_locality=Level.GOOD,
        code_footprint=Level.POOR,
        simplicity_control=Level.GOOD,
    )

    def check_applicable(self, pipeline: Pipeline) -> None:
        if pipeline.requires_global_sync:
            raise ModelNotApplicableError(
                "RTC cannot express global synchronisation between stages "
                "(conventional kernels have no global barrier)"
            )

    def run(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        initial_items: dict[str, Sequence[object]],
    ) -> RunResult:
        self.check_applicable(pipeline)
        kernel = fuse_specs(
            [pipeline.stage(s).kernel_spec() for s in pipeline.stage_names],
            name=f"rtc:{pipeline.name}",
        )
        inline_set = frozenset(pipeline.stage_names)
        stage_stats = {name: StageRunStats() for name in pipeline.stage_names}
        outputs: list[object] = []

        # Execute every item's full subtree now; pack per-block batches.
        entries: list[tuple[str, object]] = []
        total_bytes = 0
        for stage_name, payloads in initial_items.items():
            stage = pipeline.stage(stage_name)
            total_bytes += stage.item_bytes * len(payloads)
            for payload in payloads:
                entries.append(
                    (stage_name, executor.wrap_initial(stage_name, payload))
                )
        if total_bytes:
            device.memcpy_h2d(total_bytes)

        batches: list[WaveBatch] = []
        current: WaveBatch | None = None
        count_in_block = 0
        for stage_name, item in entries:
            stage = pipeline.stage(stage_name)
            per_block = max(1, kernel.threads_per_block // stage.threads_per_item)
            if current is None or count_in_block >= per_block:
                current = WaveBatch()
                batches.append(current)
                count_in_block = 0
            result = executor.run_inline(stage_name, item, inline_set)
            for task in result.tasks:
                tstage = pipeline.stage(task.stage)
                cycles = task.cost.cycles_per_thread
                current.work += cycles * tstage.threads_per_item
                stats = stage_stats[task.stage]
                stats.tasks += 1
                stats.busy_cycles += cycles
            current.min_cycles = max(current.min_cycles, result.chain_floor_cycles)
            current.threads = min(
                kernel.threads_per_block,
                current.threads + stage.threads_per_item,
            )
            count_in_block += 1
            outputs.extend(result.outputs)
            # Children escaping the inline set are impossible here: the set
            # covers every stage, so run_inline consumed the whole subtree.
            assert not result.children

        if batches:
            device.launch(kernel, wave_program(batches), num_blocks=len(batches))
            device.note_residency()
        device.synchronize()
        return self._finalize(
            device,
            outputs,
            stage_stats,
            config_description=f"single fused kernel ({kernel.registers_per_thread} regs)",
        )
