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

The placement rules live here once, for validation, the coarse and fine
models and the tuner's search space alike: the per-SM residency test of a
fine block map (:func:`fine_residency_problems`) and the largest-remainder
SM split (:func:`proportional_sm_counts`, :func:`sm_ranges`).
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
                problems = fine_residency_problems(
                    pipeline,
                    spec,
                    {s: group.block_map[s] for s in group.stages},
                )
                if problems:
                    raise ConfigurationError(
                        f"fine group {group.stages} block map infeasible "
                        "on one SM: " + "; ".join(problems)
                    )

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


def fine_residency_problems(
    pipeline: Pipeline, spec: GPUSpec, block_map: Mapping[str, int]
) -> list[str]:
    """Why one SM of ``spec`` cannot host ``block_map``'s per-SM block
    counts (stage name -> blocks), one entry per exceeded limit; empty
    when the map fits.

    The one residency rule of the plan space (Section 7): a fine group
    runs ``block_map[s]`` blocks of every stage ``s`` on each of its SMs.
    """
    regs = smem = threads = blocks = 0
    for stage_name, count in block_map.items():
        kernel = pipeline.stage(stage_name).kernel_spec()
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
    return problems


def max_fine_blocks(pipeline: Pipeline, spec: GPUSpec, stage: str) -> int:
    """Upper bound on a stage's per-SM block count (tuner pruning rule 1)."""
    return max_blocks_per_sm(pipeline.stage(stage).kernel_spec(), spec)


def proportional_sm_counts(
    num_sms: int, weights: Sequence[float]
) -> list[int]:
    """SM counts proportional to ``weights``, at least one each, summing
    to ``num_sms`` (largest-remainder method, deterministic: ties go to
    the earlier weight).  Needs ``len(weights) <= num_sms``."""
    count = len(weights)
    total = sum(max(w, 1e-12) for w in weights)
    raw = [max(w, 1e-12) / total * num_sms for w in weights]
    counts = [max(1, int(r)) for r in raw]
    while sum(counts) > num_sms:
        over = max(
            (i for i in range(count) if counts[i] > 1),
            key=lambda i: counts[i] - raw[i],
        )
        counts[over] -= 1
    order = sorted(
        range(count), key=lambda i: raw[i] - counts[i], reverse=True
    )
    cursor = 0
    while sum(counts) < num_sms:
        counts[order[cursor % count]] += 1
        cursor += 1
    return counts


def sm_ranges(counts: Sequence[int]) -> list[tuple[int, ...]]:
    """Consecutive SM id ranges of the given sizes, starting at SM 0."""
    ranges = []
    next_sm = 0
    for count in counts:
        ranges.append(tuple(range(next_sm, next_sm + count)))
        next_sm += count
    return ranges
