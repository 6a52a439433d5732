"""Execution-model configurations.

A :class:`PipelineConfig` describes the hybrid execution plan the paper's
auto-tuner searches over (Section 7): a partition of the stages into
contiguous *stage groups*, a per-group execution model, the SM set bound to
each group (SM mapping), and — for fine-pipeline groups — the number of
blocks each stage runs on each of its SMs (block mapping).

The pure models are special cases:

* Megakernel — one group, model ``megakernel``, all SMs;
* coarse pipeline — one single-stage ``megakernel`` group per stage;
* fine pipeline — one group, model ``fine``, with a block map;
* RTC — one group, model ``rtc`` (stages fused and inlined).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..gpu.occupancy import max_blocks_per_sm, registers_per_block, shared_mem_per_block
from ..gpu.specs import GPUSpec
from .errors import ConfigurationError
from .pipeline import Pipeline

GROUP_MODELS = ("megakernel", "rtc", "fine", "kbk")


@dataclass(frozen=True)
class GroupConfig:
    """One stage group: which stages, which model, which SMs."""

    stages: tuple[str, ...]
    model: str
    sm_ids: tuple[int, ...]
    #: For ``fine`` groups: blocks per SM for each stage (the paper's
    #: pruning rule fixes the same count on every SM of the group).
    block_map: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.model not in GROUP_MODELS:
            raise ConfigurationError(
                f"unknown group model {self.model!r}; choose from {GROUP_MODELS}"
            )
        if not self.stages:
            raise ConfigurationError("a stage group needs at least one stage")
        if not self.sm_ids:
            raise ConfigurationError(
                f"group {self.stages} has no SMs assigned"
            )
        if self.model == "fine":
            if self.block_map is None:
                raise ConfigurationError("fine groups require a block_map")
            missing = set(self.stages) - set(self.block_map)
            if missing:
                raise ConfigurationError(
                    f"fine block_map missing stages: {sorted(missing)}"
                )
            if any(count <= 0 for count in self.block_map.values()):
                raise ConfigurationError("block_map counts must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    """A full hybrid execution plan."""

    groups: tuple[GroupConfig, ...]
    policy: str = "deepest_first"
    online_adaptation: bool = False
    #: Work-queue organisation: "shared" (one queue per stage, the paper's
    #: baseline) or "distributed" (per-SM shards with work stealing — the
    #: Section 8.5 improvement direction).
    queue_mode: str = "shared"

    def validate(self, pipeline: Pipeline, spec: GPUSpec) -> None:
        """Check the plan against the pipeline and device."""
        covered: list[str] = []
        for group in self.groups:
            covered.extend(group.stages)
        if sorted(covered) != sorted(pipeline.stage_names):
            raise ConfigurationError(
                f"groups must partition the pipeline stages exactly; "
                f"got {covered} vs {pipeline.stage_names}"
            )
        seen_sms: set[int] = set()
        for group in self.groups:
            for sm in group.sm_ids:
                if sm < 0 or sm >= spec.num_sms:
                    raise ConfigurationError(
                        f"SM id {sm} out of range for {spec.name}"
                    )
                if sm in seen_sms:
                    raise ConfigurationError(
                        f"SM {sm} assigned to more than one group"
                    )
                seen_sms.add(sm)
            if group.model == "fine":
                _validate_fine_residency(pipeline, spec, group)

    def describe(self) -> str:
        """Human-readable one-line-per-group summary."""
        lines = []
        for group in self.groups:
            sms = _compress_ids(group.sm_ids)
            extra = ""
            if group.block_map:
                extra = " blocks={" + ", ".join(
                    f"{s}:{c}" for s, c in sorted(group.block_map.items())
                ) + "}"
            lines.append(f"[{'+'.join(group.stages)}] {group.model} on SM {sms}{extra}")
        return "; ".join(lines)


def _compress_ids(ids: Sequence[int]) -> str:
    ids = sorted(ids)
    if not ids:
        return "-"
    if len(ids) == 1:
        return str(ids[0])
    if ids == list(range(ids[0], ids[-1] + 1)):
        return f"{ids[0]}-{ids[-1]}"
    return ",".join(map(str, ids))


def _validate_fine_residency(
    pipeline: Pipeline, spec: GPUSpec, group: GroupConfig
) -> None:
    """Check that one SM can host the requested per-stage block counts."""
    regs = smem = threads = blocks = 0
    for stage_name in group.stages:
        kernel = pipeline.stage(stage_name).kernel_spec()
        count = group.block_map[stage_name]
        regs += registers_per_block(kernel, spec) * count
        smem += shared_mem_per_block(kernel, spec) * count
        threads += kernel.threads_per_block * count
        blocks += count
    problems = []
    if regs > spec.registers_per_sm:
        problems.append(f"registers {regs} > {spec.registers_per_sm}")
    if smem > spec.shared_mem_per_sm:
        problems.append(f"shared mem {smem} > {spec.shared_mem_per_sm}")
    if threads > spec.max_threads_per_sm:
        problems.append(f"threads {threads} > {spec.max_threads_per_sm}")
    if blocks > spec.max_blocks_per_sm:
        problems.append(f"blocks {blocks} > {spec.max_blocks_per_sm}")
    if problems:
        raise ConfigurationError(
            f"fine group {group.stages} block map infeasible on one SM: "
            + "; ".join(problems)
        )


def max_fine_blocks(pipeline: Pipeline, spec: GPUSpec, stage: str) -> int:
    """Upper bound on a stage's per-SM block count (tuner pruning rule 1)."""
    return max_blocks_per_sm(pipeline.stage(stage).kernel_spec(), spec)
