"""Persistent-thread group runner.

Implements the paper's software-scheduled execution (Megakernel, coarse
pipeline, fine pipeline, and RTC-fused groups inside a hybrid plan):

* a group's stages are compiled into one fused kernel (``megakernel`` /
  ``rtc``) or one kernel per stage (``fine``);
* exactly as many persistent blocks are launched as fit the group's SMs
  (occupancy-derived for fused kernels, block-map-derived for fine);
* every block loops — fetch a batch from a work queue, execute, push the
  results — until its watched stages are quiescent (the simulator's
  equivalent of the done-flag a real persistent kernel polls);
* SM binding uses the hardware scheduler's SM filters, the simulator-level
  stand-in for the SM-centric transformation (Section 4.2.2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...gpu.block import ThreadBlock
from ...gpu.kernel import KernelSpec, fuse_specs
from ...gpu.occupancy import max_blocks_per_sm
from ...obs.events import GroupExited
from ..config import GroupConfig
from ..errors import ConfigurationError
from ..runcontext import RunContext
from ..stage import TaskCost


#: Code size of the persistent scheduling loop added to fused kernels.
SCHEDULER_CODE_BYTES = 1536


def fused_group_kernel(pipeline, stages, model: str) -> KernelSpec:
    """The fused :class:`KernelSpec` for a megakernel/rtc stage group.

    Shared between the runner (which launches it) and the tuner's
    dominance bound (``repro.core.tuner.space``, which needs the same
    occupancy) so the two can never drift: scheduler code bytes are
    added for multi-stage fusions, and a pipeline-declared
    ``fused_registers`` override applies when the group spans every
    stage.
    """
    specs = [pipeline.stage(s).kernel_spec() for s in stages]
    prefix = "mk" if model == "megakernel" else "rtc"
    fused = fuse_specs(specs, name=f"{prefix}:{'+'.join(stages)}")
    if len(stages) > 1:
        fused = KernelSpec(
            name=fused.name,
            registers_per_thread=fused.registers_per_thread,
            threads_per_block=fused.threads_per_block,
            shared_mem_per_block=fused.shared_mem_per_block,
            code_bytes=fused.code_bytes + SCHEDULER_CODE_BYTES,
        )
    if (
        pipeline.fused_registers is not None
        and set(stages) == set(pipeline.stage_names)
    ):
        fused = KernelSpec(
            name=fused.name,
            registers_per_thread=max(
                fused.registers_per_thread, pipeline.fused_registers
            ),
            threads_per_block=fused.threads_per_block,
            shared_mem_per_block=fused.shared_mem_per_block,
            code_bytes=fused.code_bytes,
        )
    return fused


def locality_adjusted(
    cost: TaskCost, producer_sm: Optional[int], current_sm: int, l1_bonus: float
) -> float:
    """Cycle cost of a task given where its input item was produced.

    When the producer ran on the same SM, the memory-bound fraction of the
    cost is discounted — the fine pipeline's L1-locality benefit.
    """
    cycles = cost.cycles_per_thread
    if producer_sm is not None and producer_sm == current_sm:
        cycles *= 1.0 - cost.mem_fraction * l1_bonus
    return cycles


class PersistentGroupRunner:
    """Launches and drives the persistent kernels of one stage group."""

    def __init__(self, ctx: RunContext, group: GroupConfig) -> None:
        if group.model not in ("megakernel", "rtc", "fine"):
            raise ConfigurationError(
                f"PersistentGroupRunner cannot run model {group.model!r}"
            )
        self.ctx = ctx
        self.group = group
        self.device = ctx.device
        self.pipeline = ctx.pipeline
        self.total_blocks = 0
        self._finished_blocks = 0
        self.on_all_blocks_exited = None  # online-tuner hook
        #: Stages executed inline by RTC fusion (hoisted off the hot loop).
        self._inline_set = frozenset(group.stages)
        self._fused_kernel: Optional[KernelSpec] = None
        #: kernel -> {stage name -> fetch batch capacity} (see _capacity).
        self._capacity_maps: dict[KernelSpec, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Launch plan.
    # ------------------------------------------------------------------
    def fused_kernel(self) -> KernelSpec:
        if self._fused_kernel is not None:
            return self._fused_kernel
        fused = fused_group_kernel(
            self.pipeline, self.group.stages, self.group.model
        )
        self._fused_kernel = fused
        return fused

    def launch(self, sm_ids: Optional[Iterable[int]] = None) -> None:
        """Launch the group's persistent blocks on ``sm_ids`` — the
        group's own SMs by default, or the SMs another group freed
        (online adaptation, Section 7).

        A fused group runs its kernel's occupancy in blocks per SM; a
        fine group runs one kernel per stage, ``block_map[stage]``
        blocks pinned to each SM.  Each kernel gets its own stream.
        """
        sm_ids = self.group.sm_ids if sm_ids is None else tuple(sm_ids)
        device = self.device
        if self.group.model == "fine":
            for stage_name in self.group.stages:
                kernel = self.pipeline.stage(stage_name).kernel_spec()
                count = self.group.block_map[stage_name]
                per_block_sm = []
                for sm in sm_ids:
                    per_block_sm.extend([frozenset({sm})] * count)
                device.launch(
                    kernel,
                    lambda block, k=kernel, w=(stage_name,): self._program(
                        block, k, w, False
                    ),
                    num_blocks=len(per_block_sm),
                    stream=device.create_stream(),
                    per_block_sm=per_block_sm,
                )
                self.total_blocks += len(per_block_sm)
            return
        kernel = self.fused_kernel()
        per_sm = max_blocks_per_sm(kernel, device.spec)
        if per_sm == 0:
            raise ConfigurationError(
                f"kernel {kernel.name} does not fit on one SM at all"
            )
        watch = tuple(self.group.stages)
        inline = self.group.model == "rtc"
        num_blocks = per_sm * len(sm_ids)
        device.launch(
            kernel,
            lambda block: self._program(block, kernel, watch, inline),
            num_blocks=num_blocks,
            stream=device.create_stream(),
            sm_filter=frozenset(sm_ids),
        )
        self.total_blocks += num_blocks

    # ------------------------------------------------------------------
    # The persistent block program.
    # ------------------------------------------------------------------
    def _capacity(self, kernel: KernelSpec):
        """Fetch batch capacity per stage, precomputed once per kernel.

        Returns the mapping's ``__getitem__`` so the scheduler's per-fetch
        ``capacity_fn(stage)`` call is a plain dict lookup instead of a
        pipeline lookup plus a division.
        """
        caps = self._capacity_maps.get(kernel)
        if caps is None:
            threads = kernel.threads_per_block
            caps = {
                name: max(1, threads // stage.threads_per_item)
                for name, stage in self.pipeline.stages.items()
            }
            self._capacity_maps[kernel] = caps
        return caps.__getitem__

    def _program(
        self,
        block: ThreadBlock,
        kernel: KernelSpec,
        watch: tuple[str, ...],
        inline: bool,
    ) -> None:
        """Start the persistent loop for one block."""
        _BlockLoop(self, block, kernel, watch, inline).start()


class _BlockLoop:
    """Callback-driven persistent block program.

    The paper's ``while (item = schedule()) { fetch; execute; push }``
    loop, unrolled into one method per simulator event:

    ``_fetch`` → (queue wake) → ``_on_fetch`` → (fetch latency) →
    ``_body`` → (compute drains) → ``_after_compute`` → (push latency) →
    ``_after_push`` → ``_fetch`` ...

    Every engine event invokes the next phase's bound method directly.
    The locality adjustment inlines :func:`locality_adjusted`'s float
    expression unchanged, so schedules stay bit-identical (pinned by the
    golden tests).
    """

    __slots__ = (
        "runner",
        "ctx",
        "device",
        "engine",
        "block",
        "watch",
        "inline",
        "capacity",
        "inline_set",
        "stages_map",
        "threads_per_block",
        "run_inline",
        "run_batch",
        "block_id",
        "l1_bonus",
        "fetch",
        "children",
        "outputs",
        "stage_name",
        "qitems",
        "n_tasks",
        "stage_cycles",
        "per_stage_tasks",
        "per_stage_cycles",
    )

    def __init__(
        self,
        runner: PersistentGroupRunner,
        block: ThreadBlock,
        kernel: KernelSpec,
        watch: tuple[str, ...],
        inline: bool,
    ) -> None:
        ctx = runner.ctx
        self.runner = runner
        self.ctx = ctx
        self.device = runner.device
        self.engine = runner.device.engine
        self.block = block
        self.watch = watch
        self.inline = inline
        self.capacity = runner._capacity(kernel)
        self.inline_set = runner._inline_set
        self.stages_map = runner.pipeline.stages
        self.threads_per_block = kernel.threads_per_block
        self.run_inline = ctx.executor.run_inline
        self.run_batch = ctx.executor.run_batch
        self.block_id = block.block_id
        self.l1_bonus = runner.device.spec.l1_locality_bonus
        self.fetch = ctx.fetch_async
        # Children/outputs buffers, reused across iterations: every
        # consumer (push_cost, enqueue_children, add_outputs) reads or
        # copies, none retains the list itself.
        self.children: list[tuple[str, object]] = []
        self.outputs: list[object] = []

    def start(self) -> None:
        # Each drained compute segment resumes at the post-compute phase.
        self.block._resume = self._after_compute
        self._fetch()

    def _fetch(self) -> None:
        self.fetch(
            self.watch,
            self.capacity,
            self._on_fetch,
            self.block_id,
            self.block.sm.sm_id,
        )

    def _on_fetch(self, fetched) -> None:
        if fetched is None:
            self._exit()  # quiescent: the persistent loop's exit condition
            return
        self.stage_name, self.qitems, fetch_cost = fetched
        self.engine.schedule_call(fetch_cost, self._body)

    def _body(self) -> None:
        sm_id = self.block.sm.sm_id
        stage_name = self.stage_name
        qitems = self.qitems
        stages_map = self.stages_map
        l1_bonus = self.l1_bonus
        fetch_tpi = stages_map[stage_name].threads_per_item

        work = 0.0
        min_cycles = 0.0
        active_threads = 0
        children = self.children
        outputs = self.outputs
        children.clear()
        outputs.clear()

        if self.inline:
            per_stage_tasks: dict[str, int] = {}
            per_stage_cycles: dict[str, float] = {}
            run_inline = self.run_inline
            inline_set = self.inline_set
            for qitem in qitems:
                result = run_inline(stage_name, qitem.payload, inline_set)
                producer_sm = qitem.producer_sm
                local = producer_sm is not None and producer_sm == sm_id
                for task in result.tasks:
                    tname = task.stage
                    cost = task.cost
                    cycles = cost.cycles_per_thread
                    if local:
                        cycles *= 1.0 - cost.mem_fraction * l1_bonus
                    work += cycles * stages_map[tname].threads_per_item
                    per_stage_tasks[tname] = per_stage_tasks.get(tname, 0) + 1
                    per_stage_cycles[tname] = (
                        per_stage_cycles.get(tname, 0.0) + cycles
                    )
                min_cycles = max(min_cycles, result.chain_floor_cycles)
                active_threads += fetch_tpi
                children.extend(result.children)
                outputs.extend(result.outputs)
            self.per_stage_tasks = per_stage_tasks
            self.per_stage_cycles = per_stage_cycles
        else:
            stage_cycles = 0.0
            # One batched drain per fetch: the whole same-stage batch goes
            # through Stage.execute_batch, then per-item accounting below
            # replays the exact scalar float expressions (locality uses
            # each item's own producer SM).
            results = self.run_batch(
                stage_name, [qitem.payload for qitem in qitems]
            )
            n_tasks = len(results)
            shared = results[0].cost if n_tasks else None
            for result in results:
                if result.cost is not shared:
                    shared = None
                    break
            if shared is not None:
                # All tasks carry one TaskCost object (the common case for
                # batched stages): hoist the cost attribute loads and the
                # locality product.  Only two cycle values can occur, and
                # the running max / ordered ``work`` accumulation see the
                # exact per-item sequence the generic loop produces, so
                # every float stays bit-identical.
                base = shared.cycles_per_thread
                local = base * (1.0 - shared.mem_fraction * l1_bonus)
                for qitem, result in zip(qitems, results):
                    producer_sm = qitem.producer_sm
                    cycles = (
                        local
                        if producer_sm is not None and producer_sm == sm_id
                        else base
                    )
                    work += cycles * fetch_tpi
                    if cycles > min_cycles:
                        min_cycles = cycles
                    children.extend(result.children)
                    outputs.extend(result.outputs)
                    stage_cycles += cycles
                floor = shared.min_cycles
                if floor > min_cycles:
                    min_cycles = floor
                active_threads += fetch_tpi * n_tasks
            else:
                for qitem, result in zip(qitems, results):
                    cost = result.cost
                    cycles = cost.cycles_per_thread
                    producer_sm = qitem.producer_sm
                    if producer_sm is not None and producer_sm == sm_id:
                        cycles *= 1.0 - cost.mem_fraction * l1_bonus
                    work += cycles * fetch_tpi
                    if cycles > min_cycles:
                        min_cycles = cycles
                    floor = cost.min_cycles
                    if floor > min_cycles:
                        min_cycles = floor
                    active_threads += fetch_tpi
                    children.extend(result.children)
                    outputs.extend(result.outputs)
                    stage_cycles += cycles
            self.n_tasks = n_tasks
            self.stage_cycles = stage_cycles

        if work > 0:
            if active_threads > self.threads_per_block:
                active_threads = self.threads_per_block
            self.block.begin_compute(
                work / active_threads, active_threads, min_cycles
            )
        else:
            self._after_compute()

    def _after_compute(self) -> None:
        push = self.ctx.push_cost(self.children)
        if push > 0:
            self.engine.schedule_call(push, self._after_push)
        else:
            self._after_push()

    def _after_push(self) -> None:
        ctx = self.ctx
        stage_name = self.stage_name
        qitems = self.qitems
        ctx.enqueue_children(self.children, producer_sm=self.block.sm.sm_id)
        ctx.add_outputs(self.outputs)
        if self.inline:
            per_stage_cycles = self.per_stage_cycles
            for tstage, count in self.per_stage_tasks.items():
                ctx.note_stage_work(tstage, count, per_stage_cycles[tstage])
        elif self.n_tasks:
            ctx.note_stage_work(stage_name, self.n_tasks, self.stage_cycles)
        ctx.complete_tasks(stage_name, len(qitems), items=qitems)
        self.device.note_residency()
        self._fetch()

    def _exit(self) -> None:
        runner = self.runner
        runner._finished_blocks += 1
        if runner._finished_blocks == runner.total_blocks:
            if runner.device.obs is not None:
                runner.device.obs.emit(
                    GroupExited(
                        t=runner.device.engine.now,
                        stages=tuple(runner.group.stages),
                        blocks=runner.total_blocks,
                    )
                )
            if runner.on_all_blocks_exited is not None:
                runner.on_all_blocks_exited(runner)
        self.block._finish()
