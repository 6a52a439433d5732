"""Dynamic-parallelism execution (Section 8.4 comparison).

Every emitted data item spawns a device-side child kernel processing just
that item.  No host involvement, but each child launch pays the (large)
device-side launch overhead and hardware bounds the nesting depth — the
paper measures Reyes under DP at over 10x the VersaPipe time.
"""

from __future__ import annotations

from typing import Sequence

from ...gpu.block import ThreadBlock, one_segment
from ...gpu.device import GPUDevice
from ..errors import ModelNotApplicableError
from ..executor import Executor
from ..pipeline import Pipeline
from ..result import RunResult
from ..runcontext import StageRunStats
from .base import ExecutionModel, Level, ModelCharacteristics, register_model


@register_model
class DynamicParallelismModel(ExecutionModel):
    name = "dynamic_parallelism"
    characteristics = ModelCharacteristics(
        applicability=Level.FAIR,
        task_parallelism=Level.GOOD,
        hardware_usage=Level.FAIR,
        load_balance=Level.FAIR,
        data_locality=Level.POOR,
        code_footprint=Level.GOOD,
        simplicity_control=Level.FAIR,
    )

    def run(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        initial_items: dict[str, Sequence[object]],
    ) -> RunResult:
        stage_stats = {name: StageRunStats() for name in pipeline.stage_names}
        outputs: list[object] = []
        state = {
            "in_flight": 0,
            "max_depth": 0,
            "child_launches": 0,
            # Device-side launches serialise through the grid-launch unit:
            # this is the mechanism behind the paper's >10x DP slowdown
            # (110.6 ms ~= thousands of child grids x the launch cost).
            "launch_free_at": 0.0,
        }
        spec = device.spec
        dp_latency = spec.us_to_cycles(spec.dp_launch_us)

        def spawn(stage_name: str, item: object, depth: int, from_device: bool):
            if depth > spec.dp_max_depth:
                raise ModelNotApplicableError(
                    f"dynamic parallelism exceeded the hardware nesting "
                    f"depth limit ({spec.dp_max_depth}) at stage {stage_name!r}"
                )
            state["in_flight"] += 1
            state["max_depth"] = max(state["max_depth"], depth)
            stage = pipeline.stage(stage_name)
            result = executor.run_task(stage_name, item)
            stats = stage_stats[stage_name]
            stats.tasks += 1
            stats.busy_cycles += result.cost.cycles_per_thread
            outputs.extend(result.outputs)
            children = result.children

            def launch_children() -> None:
                # Device-side child launches: one subkernel per emitted
                # item, serialised through the grid-launch unit.
                now = device.engine.now
                for target, child in children:
                    state["child_launches"] += 1
                    state["launch_free_at"] = (
                        max(state["launch_free_at"], now) + dp_latency
                    )
                    device.engine.schedule_call(
                        state["launch_free_at"] - now,
                        lambda t=target, c=child: spawn(
                            t, c, depth + 1, from_device=True
                        ),
                    )
                state["in_flight"] -= 1

            def program(block: ThreadBlock) -> None:
                one_segment(
                    block,
                    result.cost.cycles_per_thread,
                    stage.threads_per_item,
                    result.cost.min_cycles,
                    after=launch_children,
                )

            device.launch(
                stage.kernel_spec(),
                program,
                num_blocks=1,
                stream=device.create_stream(),
                charge_host=not from_device,
            )

        for stage_name, payloads in initial_items.items():
            stage = pipeline.stage(stage_name)
            if payloads:
                device.memcpy_h2d(stage.item_bytes * len(payloads))
            for payload in payloads:
                spawn(
                    stage_name,
                    executor.wrap_initial(stage_name, payload),
                    depth=0,
                    from_device=False,
                )
        # Child launches are scheduled as future device-side events, so the
        # run is only over when the whole event heap drains (synchronize's
        # "all launches complete" condition would stop too early, between a
        # parent kernel's completion and its children's launches).
        device.run_engine()
        device.synchronize()
        assert state["in_flight"] == 0
        return self._finalize(
            device,
            outputs,
            stage_stats,
            config_description=(
                f"{state['child_launches']} child launches, "
                f"max depth {state['max_depth']}"
            ),
            extras=dict(state),
        )
