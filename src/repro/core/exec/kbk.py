"""Kernel-by-kernel execution (host-driven waves).

The KBK model launches one kernel per stage *wave*: all items currently
pending for a stage are processed by one grid, the host synchronises, routes
the emitted items, and launches the next wave.  This reproduces the model's
paper-documented costs: one kernel launch plus a host synchronisation per
wave, CPU-side control (optionally with host<->device copies), an implicit
global barrier between consecutive kernels (a few long tasks stall the
whole wave), and zero task parallelism across stages.

Two drivers live here:

* :class:`KBKLane` / :func:`run_kbk` — the standalone baseline model,
  supporting multiple concurrent lanes (the "KBK with Stream" variant of
  Figure 13) and sequential per-input processing (how the original Image
  Pyramid / Face Detection benchmarks iterate over images);
* :class:`KBKGroupRunner` — a single-lane variant that serves one stage
  group inside a hybrid plan, draining the group's work queues in waves
  while persistent groups run concurrently on other SMs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...gpu.block import ThreadBlock, one_segment
from ...gpu.device import GPUDevice
from ..config import GroupConfig
from ..errors import ExecutionError
from ..executor import Executor
from ..pipeline import Pipeline
from ..runcontext import RunContext, StageRunStats


class WaveBatch:
    """The work of one block within a wave (or of one RTC block)."""

    __slots__ = ("work", "min_cycles", "threads")

    def __init__(self) -> None:
        self.work = 0.0
        self.min_cycles = 0.0
        self.threads = 0


def _wave_batches(
    pipeline: Pipeline,
    executor: Executor,
    stage_name: str,
    items: Sequence[object],
):
    """Execute a wave's tasks and pack them into per-block batches.

    Returns ``(batches, children, outputs, busy_cycles)``.
    """
    stage = pipeline.stage(stage_name)
    per_block = stage.items_per_block()
    batches: list[WaveBatch] = []
    children: list[tuple[str, object]] = []
    outputs: list[object] = []
    busy = 0.0
    current: Optional[WaveBatch] = None
    count_in_block = 0
    # The whole wave is one same-stage batch — KBK's best case for
    # coalescing (everything pending drains at once).  Per-item packing
    # below is unchanged, so batches/costs stay bit-identical.
    for result in executor.run_batch(stage_name, list(items)):
        if current is None or count_in_block >= per_block:
            current = WaveBatch()
            batches.append(current)
            count_in_block = 0
        cycles = result.cost.cycles_per_thread
        current.work += cycles * stage.threads_per_item
        current.min_cycles = max(
            current.min_cycles, cycles, result.cost.min_cycles
        )
        current.threads = min(
            stage.threads_per_block, current.threads + stage.threads_per_item
        )
        count_in_block += 1
        busy += cycles
        children.extend(result.children)
        outputs.extend(result.outputs)
    return batches, children, outputs, busy


def wave_program(batches: list[WaveBatch]):
    """The block program of a grid of batches: block ``i`` runs
    ``batches[i]`` as one compute segment."""

    def program(block: ThreadBlock) -> None:
        batch = batches[block.tag]
        threads = max(1, batch.threads)
        one_segment(block, batch.work / threads, threads, batch.min_cycles)

    return program


class KBKLane:
    """One host-side control lane of the standalone KBK model.

    A lane owns a CUDA stream and a private pending-items table.  In
    *sequential* mode it feeds one initial item (e.g. one input image) at a
    time through the whole pipeline before starting the next — matching the
    original per-image benchmark implementations; in batched mode it sweeps
    waves over everything it was given at once.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        generations: list[dict[str, list[object]]],
        stage_stats: dict[str, StageRunStats],
        outputs: list[object],
        host_bytes_per_wave: int = 0,
    ) -> None:
        self.pipeline = pipeline
        self.device = device
        self.executor = executor
        self.generations = generations
        self.stage_stats = stage_stats
        self.outputs = outputs
        self.host_bytes_per_wave = host_bytes_per_wave
        self.stream = device.create_stream()
        self.pending: dict[str, list[object]] = {}
        self.finished = False
        self.waves = 0

    def start(self) -> None:
        self._next_generation()

    def _next_generation(self) -> None:
        if not self.generations:
            self.finished = True
            return
        generation = self.generations.pop(0)
        for stage_name, items in generation.items():
            self.pending.setdefault(stage_name, []).extend(items)
        self._sweep()

    def _sweep(self) -> None:
        for stage_name in self.pipeline.stage_names:
            items = self.pending.get(stage_name)
            if items:
                self.pending[stage_name] = []
                self._launch_wave(stage_name, items)
                return
        self._next_generation()

    def _launch_wave(self, stage_name: str, items: list[object]) -> None:
        batches, children, outputs, busy = _wave_batches(
            self.pipeline, self.executor, stage_name, items
        )
        stats = self.stage_stats[stage_name]
        stats.tasks += len(items)
        stats.busy_cycles += busy
        kernel = self.pipeline.stage(stage_name).kernel_spec()
        self.waves += 1

        def on_complete(_launch) -> None:
            # Host-side: implicit synchronisation, control logic, and any
            # per-wave host<->device traffic.
            self.device.charge_sync(source="wave")
            if self.host_bytes_per_wave:
                self.device.memcpy_d2h(self.host_bytes_per_wave)
            for target, child in children:
                self.pending.setdefault(target, []).append(child)
            self.outputs.extend(outputs)
            self._sweep()

        self.device.launch(
            kernel,
            wave_program(batches),
            num_blocks=len(batches),
            stream=self.stream,
            on_complete=on_complete,
        )
        self.device.note_residency()


def run_kbk(
    pipeline: Pipeline,
    device: GPUDevice,
    executor: Executor,
    initial_items: dict[str, Sequence[object]],
    lanes: int = 1,
    sequential: bool = False,
    host_bytes_per_wave: int = 0,
):
    """Run the full pipeline under the standalone KBK model.

    Returns ``(outputs, stage_stats, total_waves)``.
    """
    if lanes <= 0:
        raise ExecutionError("KBK needs at least one lane")
    wrapped: dict[str, list[object]] = {
        stage: [executor.wrap_initial(stage, payload) for payload in payloads]
        for stage, payloads in initial_items.items()
    }
    total_bytes = sum(
        pipeline.stage(stage).item_bytes * len(items)
        for stage, items in wrapped.items()
    )
    if total_bytes:
        device.memcpy_h2d(total_bytes)

    # Partition the initial work across lanes, round-robin.
    lane_generations: list[list[dict[str, list[object]]]] = [
        [] for _ in range(lanes)
    ]
    if sequential:
        # One generation per initial item, dealt to lanes in turn.
        index = 0
        for stage, items in wrapped.items():
            for item in items:
                lane_generations[index % lanes].append({stage: [item]})
                index += 1
    else:
        shares: list[dict[str, list[object]]] = [{} for _ in range(lanes)]
        index = 0
        for stage, items in wrapped.items():
            for item in items:
                shares[index % lanes].setdefault(stage, []).append(item)
                index += 1
        for lane_id in range(lanes):
            if shares[lane_id]:
                lane_generations[lane_id].append(shares[lane_id])

    stage_stats = {name: StageRunStats() for name in pipeline.stage_names}
    outputs: list[object] = []
    lane_objs = [
        KBKLane(
            pipeline,
            device,
            executor,
            generations,
            stage_stats,
            outputs,
            host_bytes_per_wave=host_bytes_per_wave,
        )
        for generations in lane_generations
        if generations
    ]
    for lane in lane_objs:
        lane.start()
    device.synchronize(charge_host=False)
    # A lane only finishes by exhausting its generations; all launches done
    # implies all lanes swept to completion.
    if not all(lane.finished for lane in lane_objs):
        raise ExecutionError("KBK lanes did not drain (internal error)")
    total_waves = sum(lane.waves for lane in lane_objs)
    return outputs, stage_stats, total_waves


class KBKGroupRunner:
    """A KBK-scheduled stage group inside a hybrid plan (Section 5).

    The group's kernels use the hardware scheduler (restricted to the
    group's SMs); the host drives wave launches whenever the group's input
    queues hold work, synchronising between consecutive waves.
    """

    def __init__(self, ctx: RunContext, group: GroupConfig) -> None:
        self.ctx = ctx
        self.group = group
        self.device = ctx.device
        self.pipeline = ctx.pipeline
        self.stream = ctx.device.create_stream()
        self.finished = False
        self.waves = 0

    def start(self) -> None:
        self._await_work()

    def _await_work(self) -> None:
        self.ctx.wait_for_work(tuple(self.group.stages), self._on_work)

    def _on_work(self, signal: Optional[bool]) -> None:
        if signal is None:
            self.finished = True
            self.device.done_flag[0] = True  # the run may be over
            return
        for stage_name in self.group.stages:
            if self.ctx.queue_set.has_work(stage_name):
                qitems = self.ctx.drain_stage(stage_name)
                self._launch_wave(stage_name, qitems)
                return
        # Raced with another consumer; go back to waiting.
        self._await_work()

    def _launch_wave(self, stage_name: str, qitems) -> None:
        items = [qi.payload for qi in qitems]
        batches, children, outputs, busy = _wave_batches(
            self.pipeline, self.ctx.executor, stage_name, items
        )
        self.waves += 1
        kernel = self.pipeline.stage(stage_name).kernel_spec()

        def on_complete(_launch) -> None:
            self.device.charge_sync(source="wave")
            # KBK stages exchange data via global memory: no locality tag.
            self.ctx.enqueue_children(children, producer_sm=None)
            self.ctx.add_outputs(outputs)
            self.ctx.note_stage_work(stage_name, len(items), busy)
            self.ctx.complete_tasks(stage_name, len(items), items=qitems)
            self._await_work()

        self.device.launch(
            kernel,
            wave_program(batches),
            num_blocks=len(batches),
            stream=self.stream,
            sm_filter=frozenset(self.group.sm_ids),
            on_complete=on_complete,
        )
        self.device.note_residency()
