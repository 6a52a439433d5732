"""Kernel-by-kernel model wrapper (Section 4.1)."""

from __future__ import annotations

from typing import Sequence

from ...gpu.device import GPUDevice
from ..executor import Executor
from ..exec.kbk import run_kbk
from ..pipeline import Pipeline
from ..result import RunResult
from .base import ExecutionModel, Level, ModelCharacteristics, register_model


@register_model
class KBKModel(ExecutionModel):
    """Host-driven stage waves: the most general but sync-heavy model.

    Options mirror how the original benchmarks were written:

    * ``sequential`` — feed one initial item at a time through the whole
      pipeline (per-image processing, as in the Image Pyramid and Face
      Detection baselines);
    * ``lanes`` — number of concurrent host lanes/CUDA streams ("KBK with
      Stream" in Figure 13);
    * ``host_bytes_per_wave`` — CPU-side control traffic per wave (the
      memory-copy overhead the paper attributes to KBK).
    """

    name = "kbk"
    characteristics = ModelCharacteristics(
        applicability=Level.GOOD,
        task_parallelism=Level.POOR,
        hardware_usage=Level.GOOD,
        load_balance=Level.FAIR,
        data_locality=Level.POOR,
        code_footprint=Level.GOOD,
        simplicity_control=Level.GOOD,
    )

    def __init__(
        self,
        lanes: int = 1,
        sequential: bool = False,
        host_bytes_per_wave: int = 0,
    ) -> None:
        self.lanes = lanes
        self.sequential = sequential
        self.host_bytes_per_wave = host_bytes_per_wave

    def run(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        initial_items: dict[str, Sequence[object]],
    ) -> RunResult:
        outputs, stage_stats, waves = run_kbk(
            pipeline,
            device,
            executor,
            initial_items,
            lanes=self.lanes,
            sequential=self.sequential,
            host_bytes_per_wave=self.host_bytes_per_wave,
        )
        label = f"{waves} waves, {self.lanes} lane(s)"
        if self.sequential:
            label += ", sequential inputs"
        return self._finalize(
            device,
            outputs,
            stage_stats,
            config_description=label,
            extras={"waves": waves},
        )
