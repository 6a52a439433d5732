"""Megakernel model (Section 4.1): one persistent kernel for all stages.

Implemented as a one-group hybrid plan over every SM.  The fused kernel
pays the maximum per-stage register pressure — the paper's central critique:
on Reyes the megakernel's 255 registers/thread leave room for a single
block per K20c SM, so most of the GPU's latency-hiding capacity is wasted.
"""

from __future__ import annotations

from ...gpu.specs import GPUSpec
from ..config import GroupConfig, PipelineConfig
from ..pipeline import Pipeline
from .base import Level, ModelCharacteristics, register_model
from .hybrid import PlannedModel


@register_model
class MegakernelModel(PlannedModel):
    name = "megakernel"
    characteristics = ModelCharacteristics(
        applicability=Level.FAIR,
        task_parallelism=Level.GOOD,
        hardware_usage=Level.POOR,
        load_balance=Level.GOOD,
        data_locality=Level.FAIR,
        code_footprint=Level.POOR,
        simplicity_control=Level.FAIR,
    )

    def __init__(
        self, policy: str = "deepest_first", queue_mode: str = "shared"
    ) -> None:
        self.policy = policy
        self.queue_mode = queue_mode

    def plan(self, pipeline: Pipeline, spec: GPUSpec) -> PipelineConfig:
        return PipelineConfig(
            groups=(
                GroupConfig(
                    stages=tuple(pipeline.stage_names),
                    model="megakernel",
                    sm_ids=tuple(range(spec.num_sms)),
                ),
            ),
            policy=self.policy,
            queue_mode=self.queue_mode,
        )
