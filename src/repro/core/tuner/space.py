"""Configuration-space enumeration with the paper's pruning rules.

The search space is the product of three choices (Section 7):

1. **Stage grouping** — contiguous partitions of the stage list ("a stage
   can only be grouped with its neighbouring stages"): 2^(n-1) partitions.
2. **Per-group model** — RTC, Megakernel, fine pipeline or KBK for each
   group ("It then explores all possible models for each group").
3. **SM mapping** — how many SMs each group gets — and, for fine groups,
   **block mapping**, pruned by the paper's two rules: (a) each stage's
   per-SM count is capped by its occupancy limit, and (b) a stage runs the
   same number of blocks on every SM it is assigned.

Full enumeration explodes combinatorially, so — like the paper's tuner,
which bounds wall-clock via its timeout — we bound the *number* of SM
mappings per grouping (proportional allocation plus single-SM transfers)
and the number of block maps per fine group (maximal packings first).
The generator is deterministic, so tuning is reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ...gpu.occupancy import max_blocks_per_sm
from ...gpu.specs import GPUSpec
from ..config import (
    GroupConfig,
    PipelineConfig,
    fine_residency_problems,
    max_fine_blocks,
    proportional_sm_counts,
    sm_ranges,
)
from ..exec.persistent import fused_group_kernel
from ..pipeline import Pipeline
from .profiler import PipelineProfile

#: Relative safety margin on the dominance bound: the bound must stay a
#: strict *lower* bound on simulated time even under floating-point
#: cancellation, or pruning could discard the true optimum.
BOUND_SAFETY = 0.999

#: SM mappings tried per grouping (proportional split + transfers).
MAX_SM_VARIANTS = 6
#: Block maps tried per fine group (largest packings first).
MAX_BLOCK_MAPS = 6


def contiguous_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of ``n`` (ordered group sizes), coarsest first."""
    sized: list[tuple[int, ...]] = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        sizes: list[int] = []
        current = 1
        for cut in cuts:
            if cut:
                sizes.append(current)
                current = 1
            else:
                current += 1
        sizes.append(current)
        sized.append(tuple(sizes))
    sized.sort(key=lambda sizes: (len(sizes), sizes))
    return iter(sized)


def group_model_candidates(
    pipeline: Pipeline, stages: tuple[str, ...], spec: GPUSpec
) -> list[str]:
    """Execution models worth trying for one stage group."""
    candidates = ["megakernel"]
    if not any(pipeline.stage(s).requires_global_sync for s in stages):
        candidates.append("rtc")
    if len(stages) > 1 and not fine_residency_problems(
        pipeline, spec, {s: 1 for s in stages}
    ):
        candidates.append("fine")
    candidates.append("kbk")
    return candidates


def sm_allocations(
    num_sms: int, group_weights: Sequence[float]
) -> list[tuple[int, ...]]:
    """Candidate SM counts per group: proportional plus neighbours.

    Starts from the largest-remainder proportional split and adds every
    single-SM transfer between group pairs that keeps all counts >= 1,
    up to :data:`MAX_SM_VARIANTS` allocations.
    """
    k = len(group_weights)
    if k > num_sms:
        return []
    base = proportional_sm_counts(num_sms, group_weights)
    variants: list[tuple[int, ...]] = [tuple(base)]
    for src in range(k):
        for dst in range(k):
            if src == dst or base[src] <= 1:
                continue
            moved = list(base)
            moved[src] -= 1
            moved[dst] += 1
            candidate = tuple(moved)
            if candidate not in variants:
                variants.append(candidate)
    return variants[:MAX_SM_VARIANTS]


def fine_block_maps(
    pipeline: Pipeline, spec: GPUSpec, stages: tuple[str, ...]
) -> list[dict[str, int]]:
    """Feasible per-SM block maps for a fine group, pruned per the paper.

    Rule 1: each stage's count is bounded by its occupancy maximum.
    Rule 2 is structural (one count per stage, replicated over the group's
    SMs).  Maps that are dominated (every count <= another feasible map's)
    are dropped, and the largest total block counts are tried first, up
    to :data:`MAX_BLOCK_MAPS` maps.
    """
    limits = {s: max_fine_blocks(pipeline, spec, s) for s in stages}
    feasible: list[dict[str, int]] = []
    for counts in itertools.product(
        *(range(1, limits[s] + 1) for s in stages)
    ):
        candidate = dict(zip(stages, counts))
        if not fine_residency_problems(pipeline, spec, candidate):
            feasible.append(candidate)
    # Keep only maps not dominated by another feasible map.
    maximal = [
        m
        for m in feasible
        if not any(
            other is not m and all(other[s] >= m[s] for s in stages)
            and any(other[s] > m[s] for s in stages)
            for other in feasible
        )
    ]
    maximal.sort(key=lambda m: (-sum(m.values()), tuple(m[s] for s in stages)))
    return maximal[:MAX_BLOCK_MAPS]


def lane_limits(
    pipeline: Pipeline, spec: GPUSpec, config: PipelineConfig
) -> list[tuple[tuple[str, ...], int, float]]:
    """Every lane cap the dominance cut applies to ``config``.

    Each entry ``(stages, num_sms, cap)`` says the thread-cycles of
    ``stages`` drain through ``num_sms`` SMs at no more than ``cap``
    lanes per SM-clock: one entry per group for the group total, plus
    one per stage that has its own cap (fine and kbk groups).  The
    static bound (:func:`throughput_bound_cycles`) and the tuner's
    in-flight check both read their caps from here; the former's
    docstring explains why each cap holds.
    """
    cores = float(spec.cores_per_sm)
    limits: list[tuple[tuple[str, ...], int, float]] = []
    for group in config.groups:
        num_sms = len(group.sm_ids)
        if num_sms == 0:
            continue
        group_cap = cores
        per_stage: dict[str, float] = {}
        if group.model in ("megakernel", "rtc"):
            kernel = fused_group_kernel(pipeline, group.stages, group.model)
            occupancy = max_blocks_per_sm(kernel, spec)
            if occupancy > 0:  # occ 0 replays to `invalid`; keep loose cap
                group_cap = min(
                    cores, float(occupancy * kernel.threads_per_block)
                )
        elif group.model == "fine" and group.block_map is not None:
            fine_total = 0.0
            for s in group.stages:
                tpb = pipeline.stage(s).kernel_spec().threads_per_block
                cap = min(cores, float(group.block_map.get(s, 0) * tpb))
                per_stage[s] = cap
                fine_total += cap
            group_cap = min(cores, fine_total)
        elif group.model == "kbk":
            for s in group.stages:
                kernel = pipeline.stage(s).kernel_spec()
                occupancy = max_blocks_per_sm(kernel, spec)
                if occupancy > 0:
                    per_stage[s] = min(
                        cores, float(occupancy * kernel.threads_per_block)
                    )
        if group_cap > 0:
            limits.append((tuple(group.stages), num_sms, group_cap))
        for s, cap in per_stage.items():
            if cap > 0:
                limits.append(((s,), num_sms, cap))
    return limits


def throughput_bound_cycles(
    pipeline: Pipeline,
    spec: GPUSpec,
    profile: PipelineProfile,
    config: PipelineConfig,
) -> float:
    """Provable lower bound on a configuration's replayed time, in cycles.

    Work queues route every task of a stage to the group that owns the
    stage, and each group's blocks run only on its ``sm_ids`` — so the
    profiled thread-cycles of a group's stages must all drain through
    that group's SMs.  An SM retires at most ``cores_per_sm``
    thread-cycles per clock (the lane throughput cap in
    :meth:`~repro.gpu.sm.StreamingMultiprocessor._reschedule`), and L1
    locality can discount a task's cost by at most
    ``l1_locality_bonus``.  Everything else the simulator models —
    queue fetch/push delays, ``min_cycles`` floors, icache penalties,
    sub-peak utilization — only adds time, so::

        elapsed >= max over groups of
            (1 - l1_bonus) * thread_cycles(group) / (|SMs| * cores_per_sm)

    The raw lane cap is loose for low-occupancy launches, so the cap is
    tightened per execution model from what each model can actually keep
    resident on one SM (:func:`lane_limits`):

    * **megakernel/rtc** — the group launches
      ``max_blocks_per_sm(fused_kernel)`` persistent blocks per SM
      (:func:`~repro.core.exec.persistent.fused_group_kernel` is shared
      with the runner so the occupancy can never drift), and each block
      runs one compute segment of at most ``threads_per_block`` threads
      at a time — so the group drains at most
      ``min(cores_per_sm, blocks x tpb)`` thread-cycles per SM-clock;
    * **fine** — stage ``s`` work only executes in stage-``s`` blocks
      (``block_map[s]`` per SM, each <= that stage's ``tpb``), giving a
      *per-stage* cap in addition to the group total;
    * **kbk** — a wave batch clamps threads to the stage's ``tpb`` and
      admission keeps at most ``max_blocks_per_sm(kernel)`` resident,
      giving a per-stage cap (stages may overlap across waves, so their
      caps are never summed).

    The offline tuner uses this as its *dominance cut*: a candidate
    whose bound already exceeds the running best's deadline is strictly
    dominated and is pruned without replaying it.
    """
    discount = max(0.0, 1.0 - spec.l1_locality_bonus)
    bound = 0.0
    for stages, num_sms, cap in lane_limits(pipeline, spec, config):
        work = sum(
            profile.stages[s].total_cycles * pipeline.stage(s).threads_per_item
            for s in stages
            if s in profile.stages
        )
        bound = max(bound, discount * work / (num_sms * cap))
    return bound * BOUND_SAFETY


def enumerate_configs(
    pipeline: Pipeline,
    spec: GPUSpec,
    profile: Optional[PipelineProfile] = None,
    include_kbk_groups: bool = True,
) -> Iterator[PipelineConfig]:
    """Yield candidate hybrid configurations, coarsest groupings first."""
    names = pipeline.stage_names
    weights = profile.weights() if profile is not None else {}
    for sizes in contiguous_partitions(len(names)):
        groups = pipeline.contiguous_groups(sizes)
        if len(groups) > spec.num_sms:
            continue
        group_weights = [
            sum(weights.get(s, 1.0) for s in g) or 1.0 for g in groups
        ]
        model_choices = []
        for g in groups:
            choices = group_model_candidates(pipeline, g, spec)
            if not include_kbk_groups and len(groups) > 1:
                choices = [c for c in choices if c != "kbk"]
            model_choices.append(choices)
        for models in itertools.product(*model_choices):
            for allocation in sm_allocations(spec.num_sms, group_weights):
                sm_sets = sm_ranges(allocation)
                block_map_choices = []
                for g, model in zip(groups, models):
                    if model == "fine":
                        maps = fine_block_maps(pipeline, spec, g)
                        if not maps:
                            break
                        block_map_choices.append(maps)
                    else:
                        block_map_choices.append([None])
                else:
                    for maps in itertools.product(*block_map_choices):
                        yield PipelineConfig(
                            groups=tuple(
                                GroupConfig(
                                    stages=g,
                                    model=model,
                                    sm_ids=sm_ids,
                                    block_map=block_map,
                                )
                                for g, model, sm_ids, block_map in zip(
                                    groups, models, sm_sets, maps
                                )
                            )
                        )
