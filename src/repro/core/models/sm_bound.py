"""The paper's two new SM-bound models (Section 4.2.2).

*Coarse pipeline*: one persistent kernel per stage, each bound to an
exclusive set of SMs (implemented as single-stage megakernel groups).

*Fine pipeline*: one persistent kernel per stage with an explicit per-SM
block count, letting several stages share an SM (one fine group spanning
the requested SMs).

Both accept explicit mappings or derive sensible defaults: coarse splits
the SMs proportionally to a load estimate (uniform when none is given);
fine packs one block of every stage per SM and then greedily adds blocks of
the cheapest stages while resources remain.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ...gpu.specs import GPUSpec
from ..config import (
    GroupConfig,
    PipelineConfig,
    fine_residency_problems,
    max_fine_blocks,
    proportional_sm_counts,
    sm_ranges,
)
from ..errors import ConfigurationError
from ..pipeline import Pipeline
from .base import Level, ModelCharacteristics, register_model
from .hybrid import PlannedModel


def split_sms_proportionally(
    num_sms: int, stages: Sequence[str], weights: Optional[Mapping[str, float]]
) -> dict[str, tuple[int, ...]]:
    """Partition SM ids among stages proportionally to ``weights``.

    Every stage receives at least one SM; remainders go to the heaviest
    stages (largest-remainder method, deterministic).
    """
    if len(stages) > num_sms:
        raise ConfigurationError(
            f"coarse pipeline needs >= 1 SM per stage: {len(stages)} stages "
            f"vs {num_sms} SMs"
        )
    weights = weights or {}
    counts = proportional_sm_counts(
        num_sms, [weights.get(s, 1.0) for s in stages]
    )
    return dict(zip(stages, sm_ranges(counts)))


def default_fine_block_map(
    pipeline: Pipeline, spec: GPUSpec, stages: Sequence[str]
) -> dict[str, int]:
    """One block per stage per SM, then greedily add more while they fit."""
    block_map = {s: 1 for s in stages}
    if fine_residency_problems(pipeline, spec, block_map):
        raise ConfigurationError(
            f"stages {list(stages)} cannot co-reside even at 1 block each; "
            "use coarse pipeline or regroup"
        )
    changed = True
    while changed:
        changed = False
        for stage_name in sorted(
            stages,
            key=lambda s: pipeline.stage(s).kernel_spec().registers_per_thread,
        ):
            if block_map[stage_name] >= max_fine_blocks(pipeline, spec, stage_name):
                continue
            trial = dict(block_map)
            trial[stage_name] += 1
            if not fine_residency_problems(pipeline, spec, trial):
                block_map = trial
                changed = True
    return block_map


def fit_fine_block_map(
    pipeline: Pipeline, spec: GPUSpec, preferred: Mapping[str, int]
) -> dict[str, int]:
    """Clamp a hand-tuned per-SM block map to what ``spec`` can host.

    The workloads' ``versapipe_config`` plans were tuned on the paper's
    devices (2048-thread Kepler/Pascal SMs); a device with tighter
    per-SM residency limits (e.g. Turing's 1024-thread SMs) scales the
    plan down instead of failing: the stage with the most blocks gives
    one back (first such stage in map order on ties, deterministic)
    until the group co-resides.  On devices where the preferred map
    already fits, it is returned unchanged.  Raises when even one block
    per stage cannot fit.
    """
    block_map = dict(preferred)
    while fine_residency_problems(pipeline, spec, block_map):
        victim = None
        for stage_name, count in block_map.items():
            if count > 1 and (
                victim is None or count > block_map[victim]
            ):
                victim = stage_name
        if victim is None:
            raise ConfigurationError(
                f"stages {list(block_map)} cannot co-reside even at "
                "1 block each; use coarse pipeline or regroup"
            )
        block_map[victim] -= 1
    return block_map


@register_model
class CoarsePipelineModel(PlannedModel):
    """Each stage exclusively owns a set of SMs (Figure 4)."""

    name = "coarse"
    characteristics = ModelCharacteristics(
        applicability=Level.GOOD,
        task_parallelism=Level.GOOD,
        hardware_usage=Level.FAIR,
        load_balance=Level.FAIR,
        data_locality=Level.FAIR,
        code_footprint=Level.GOOD,
        simplicity_control=Level.FAIR,
    )

    def __init__(
        self,
        sm_assignment: Optional[Mapping[str, Sequence[int]]] = None,
        weights: Optional[Mapping[str, float]] = None,
        policy: str = "deepest_first",
    ) -> None:
        self.sm_assignment = sm_assignment
        self.weights = weights
        self.policy = policy

    def plan(self, pipeline: Pipeline, spec: GPUSpec) -> PipelineConfig:
        if self.sm_assignment is not None:
            assignment = {
                s: tuple(ids) for s, ids in self.sm_assignment.items()
            }
        else:
            assignment = split_sms_proportionally(
                spec.num_sms, pipeline.stage_names, self.weights
            )
        groups = tuple(
            GroupConfig(stages=(s,), model="megakernel", sm_ids=assignment[s])
            for s in pipeline.stage_names
        )
        return PipelineConfig(groups=groups, policy=self.policy)


@register_model
class FinePipelineModel(PlannedModel):
    """Stages share SMs at thread-block granularity (Figure 5)."""

    name = "fine"
    characteristics = ModelCharacteristics(
        applicability=Level.GOOD,
        task_parallelism=Level.GOOD,
        hardware_usage=Level.GOOD,
        load_balance=Level.GOOD,
        data_locality=Level.GOOD,
        code_footprint=Level.GOOD,
        simplicity_control=Level.POOR,
    )

    def __init__(
        self,
        block_map: Optional[Mapping[str, int]] = None,
        sm_ids: Optional[Sequence[int]] = None,
        policy: str = "deepest_first",
    ) -> None:
        self.block_map = dict(block_map) if block_map is not None else None
        self.sm_ids = tuple(sm_ids) if sm_ids is not None else None
        self.policy = policy

    def plan(self, pipeline: Pipeline, spec: GPUSpec) -> PipelineConfig:
        block_map = self.block_map or default_fine_block_map(
            pipeline, spec, pipeline.stage_names
        )
        return PipelineConfig(
            groups=(
                GroupConfig(
                    stages=tuple(pipeline.stage_names),
                    model="fine",
                    sm_ids=self.sm_ids or tuple(range(spec.num_sms)),
                    block_map=block_map,
                ),
            ),
            policy=self.policy,
        )
