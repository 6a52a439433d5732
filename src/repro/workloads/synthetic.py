"""Synthetic pipeline generator.

The six paper applications are fixed points in the design space; this
module generates *parameterised* pipelines — stage count, register
pressure, fan-out, cost imbalance, recursion — so the execution models can
be compared across the whole space (see
``benchmarks/bench_model_selection.py``, which quantifies the Figure 6
qualitative matrix).

Everything is deterministic: per-item behaviour derives from a hash of the
item's identity, never from shared state, so the generated pipelines
satisfy the framework's purity requirement and replay correctly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..core.pipeline import Pipeline
from ..core.stage import OUTPUT, Stage, TaskCost


def _unit_hash(*parts: object) -> float:
    """Deterministic pseudo-random float in [0, 1) from the parts."""
    digest = hashlib.blake2b(
        "/".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class SyntheticStageSpec:
    """Shape of one generated stage."""

    registers_per_thread: int = 64
    #: Mean simulated cycles per task.
    mean_cycles: float = 2000.0
    #: Relative cost spread: task cost in mean * [1-imbalance, 1+imbalance].
    imbalance: float = 0.0
    #: Mean children emitted per task to the next stage.
    fan_out: float = 1.0
    #: Probability a task re-enters its own stage (recursion).
    recursion_prob: float = 0.0
    threads_per_item: int = 32
    threads_per_block: int = 128
    mem_fraction: float = 0.4
    code_bytes: int = 2400


@dataclass(frozen=True)
class SyntheticParams:
    """A full synthetic pipeline description."""

    stages: tuple[SyntheticStageSpec, ...]
    num_items: int = 200
    #: Cap on recursion depth (safety net for high recursion_prob).
    max_depth: int = 12
    seed: int = 0

    @staticmethod
    def uniform(
        num_stages: int,
        registers: int = 64,
        mean_cycles: float = 2000.0,
        imbalance: float = 0.0,
        fan_out: float = 1.0,
        num_items: int = 200,
        seed: int = 0,
    ) -> "SyntheticParams":
        """Identical stages — the simplest slice of the design space."""
        return SyntheticParams(
            stages=tuple(
                SyntheticStageSpec(
                    registers_per_thread=registers,
                    mean_cycles=mean_cycles,
                    imbalance=imbalance,
                    fan_out=fan_out,
                )
                for _ in range(num_stages)
            ),
            num_items=num_items,
            seed=seed,
        )


@dataclass(frozen=True, slots=True)
class _SyntheticItem:
    """A payload carrying its own provenance (for deterministic hashing)."""

    token: str
    depth: int = 0


class _SyntheticStage(Stage):
    """One generated stage; behaviour is a pure function of the item."""

    def __init__(
        self,
        index: int,
        spec: SyntheticStageSpec,
        next_stage: Optional[str],
        params: SyntheticParams,
    ) -> None:
        self.name = f"s{index}"
        targets = []
        if spec.recursion_prob > 0:
            targets.append(self.name)
        targets.append(next_stage if next_stage is not None else OUTPUT)
        self.emits_to = tuple(targets)
        self.threads_per_item = spec.threads_per_item
        self.threads_per_block = spec.threads_per_block
        self.registers_per_thread = spec.registers_per_thread
        self.code_bytes = spec.code_bytes
        self.item_bytes = 16
        self._spec = spec
        self._next = next_stage
        self._params = params
        #: With no imbalance every task costs the mean; TaskCost is frozen,
        #: so one shared instance serves all of them.
        self._flat_cost = (
            TaskCost(
                cycles_per_thread=spec.mean_cycles,
                mem_fraction=spec.mem_fraction,
            )
            if spec.imbalance <= 0
            else None
        )
        super().__init__()

    def execute(self, item: _SyntheticItem, ctx) -> None:
        spec = self._spec
        seed = self._params.seed
        if (
            spec.recursion_prob > 0
            and item.depth < self._params.max_depth
            and _unit_hash(seed, self.name, item.token, "rec")
            < spec.recursion_prob
        ):
            ctx.emit(
                self.name,
                _SyntheticItem(f"{item.token}.r", item.depth + 1),
            )
            return
        # Fan out: floor(fan_out) children plus one more with probability
        # frac(fan_out), each a fresh token.  Integral fan-outs skip the
        # hash entirely — its draw could never beat a zero fraction.
        count = int(spec.fan_out)
        frac = spec.fan_out - count
        if frac > 0.0 and _unit_hash(seed, self.name, item.token, "fan") < frac:
            count += 1
        for child in range(count):
            payload = _SyntheticItem(f"{item.token}.{child}", 0)
            if self._next is None:
                ctx.emit_output(payload)
            else:
                ctx.emit(self._next, payload)

    def execute_batch(self, items, ctxs):
        """Batched drain, specialised for the flat slice of the space.

        With no recursion, no fractional fan-out and no cost imbalance,
        every item deterministically emits ``int(fan_out)`` children and
        costs the shared flat :class:`TaskCost` — the per-item hash draws
        and the generic ``execute``/``cost`` dispatch can be skipped
        wholesale.  Emissions and costs are exactly what the scalar path
        produces (pinned, branch by branch, by
        ``tests/workloads/test_synthetic.py::TestBatchedDrain``);
        anything off the flat slice falls back to the generic loop.
        """
        spec = self._spec
        flat = self._flat_cost
        count = int(spec.fan_out)
        if (
            flat is None
            or spec.recursion_prob > 0
            or spec.fan_out != count
        ):
            return super().execute_batch(items, ctxs)
        nxt = self._next
        if nxt is None:
            for item, ctx in zip(items, ctxs):
                token = item.token
                ctx.outputs.extend(
                    _SyntheticItem(f"{token}.{c}", 0) for c in range(count)
                )
        elif count == 1:
            for item, ctx in zip(items, ctxs):
                ctx.children.append(
                    (nxt, _SyntheticItem(item.token + ".0", 0))
                )
        else:
            for item, ctx in zip(items, ctxs):
                token = item.token
                ctx.children.extend(
                    (nxt, _SyntheticItem(f"{token}.{c}", 0))
                    for c in range(count)
                )
        return [flat] * len(items)

    def cost(self, item: _SyntheticItem) -> TaskCost:
        if self._flat_cost is not None:
            return self._flat_cost
        spec = self._spec
        unit = _unit_hash(self._params.seed, self.name, item.token, "c")
        factor = 1.0 - spec.imbalance + 2.0 * spec.imbalance * unit
        return TaskCost(
            cycles_per_thread=spec.mean_cycles * factor,
            mem_fraction=spec.mem_fraction,
        )


def build_pipeline(params: SyntheticParams) -> Pipeline:
    if not params.stages:
        raise ValueError("a synthetic pipeline needs at least one stage")
    stages = []
    for index, spec in enumerate(params.stages):
        next_stage = (
            f"s{index + 1}" if index + 1 < len(params.stages) else None
        )
        stages.append(_SyntheticStage(index, spec, next_stage, params))
    return Pipeline(stages, name=f"synthetic{len(params.stages)}")


def initial_items(params: SyntheticParams) -> dict[str, list]:
    return {
        "s0": [
            _SyntheticItem(f"i{index}") for index in range(params.num_items)
        ]
    }


def expected_output_range(params: SyntheticParams) -> tuple[int, int]:
    """Bounds on the number of sink outputs (fan-out can vary per item)."""
    low = high = params.num_items
    for spec in params.stages:
        low *= int(spec.fan_out)
        high *= int(spec.fan_out) + (1 if spec.fan_out % 1 else 0)
    return low, high
