"""Kernel launches, streams, and the hardware block scheduler.

A :class:`KernelLaunch` is one grid of thread blocks.  Launches issued into
the same :class:`Stream` execute in order (the next launch becomes ready
only when the previous one has fully completed); launches in different
streams may co-schedule, which is how the paper's coarse/fine pipelines run
one persistent kernel per stage concurrently.

The :class:`HardwareScheduler` dispatches ready blocks onto SMs greedily
and in launch order, respecting each block's optional SM filter (the
simulator-level equivalent of the SM-centric mechanism: on real hardware
blocks are over-launched and exit immediately when they find themselves on
a non-assigned SM; here the scheduler simply never places them there, which
has the same steady-state effect at negligible cost).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..obs.events import EventBus, KernelRetired
from .block import ThreadBlock
from .kernel import KernelSpec
from .sm import StreamingMultiprocessor


class KernelLaunch:
    """One launched grid: a list of blocks flowing through the SMs."""

    _ids = iter(range(1, 1 << 60))

    def __init__(
        self,
        kernel: KernelSpec,
        blocks: list[ThreadBlock],
        stream: "Stream",
    ) -> None:
        self.launch_id = next(KernelLaunch._ids)
        self.kernel = kernel
        self.blocks = blocks
        self.stream = stream
        self.ready = False
        self.issue_cycle: float | None = None
        self.complete_cycle: float | None = None
        self._undispatched = list(reversed(blocks))  # pop() from the end
        self._outstanding = len(blocks)
        self._on_complete: list[Callable[["KernelLaunch"], None]] = []
        for block in blocks:
            block.launch = self

    @property
    def done(self) -> bool:
        return self._outstanding == 0

    def add_completion_callback(self, fn: Callable[["KernelLaunch"], None]) -> None:
        if self.done:
            fn(self)
        else:
            self._on_complete.append(fn)

    def next_block(self) -> Optional[ThreadBlock]:
        return self._undispatched[-1] if self._undispatched else None

    def pop_block(self) -> ThreadBlock:
        return self._undispatched.pop()

    def block_retired(self, now: float) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self.complete_cycle = now
            callbacks, self._on_complete = self._on_complete, []
            for fn in callbacks:
                fn(self)


class Stream:
    """An in-order launch queue (CUDA stream semantics)."""

    _ids = iter(range(1, 1 << 60))

    def __init__(self, scheduler: "HardwareScheduler") -> None:
        self.stream_id = next(Stream._ids)
        self._scheduler = scheduler
        self._queue: list[KernelLaunch] = []

    def enqueue(self, launch: KernelLaunch) -> None:
        self._queue.append(launch)
        if len(self._queue) == 1:
            self._make_head_ready()

    def _make_head_ready(self) -> None:
        head = self._queue[0]
        head.ready = True
        self._scheduler.activate(head)
        head.add_completion_callback(self._head_done)

    def _head_done(self, launch: KernelLaunch) -> None:
        assert self._queue and self._queue[0] is launch
        self._queue.pop(0)
        if self._queue:
            self._make_head_ready()

    @property
    def idle(self) -> bool:
        return not self._queue


class HardwareScheduler:
    """Greedy, in-order dispatch of ready blocks onto SMs."""

    def __init__(self, sms: Iterable[StreamingMultiprocessor]) -> None:
        self.sms = list(sms)
        self._active: list[KernelLaunch] = []
        self._dispatching = False
        #: Blocks currently resident across all SMs, maintained on
        #: admit/retire so residency polls need no per-SM scan.
        self.resident_count = 0
        #: Optional telemetry bus (set via GPUDevice.attach_observer).
        self.obs: Optional[EventBus] = None
        for sm in self.sms:
            sm.on_retire = self._on_block_retired

    def activate(self, launch: KernelLaunch) -> None:
        self._active.append(launch)
        self.dispatch()

    def _pick_sm(self, block: ThreadBlock) -> Optional[StreamingMultiprocessor]:
        """Least-loaded SM (by resident threads) that can admit the block.

        Ties break towards the lowest SM id: the scan's strict ``<``
        keeps the first minimum (pinned by the golden tests).
        """
        kernel = block.kernel
        best: Optional[StreamingMultiprocessor] = None
        for sm in self.sms:
            if block.sm_filter is not None and sm.sm_id not in block.sm_filter:
                continue
            if not sm.can_admit(kernel):
                continue
            if best is None or sm.threads_used < best.threads_used:
                best = sm
        return best

    def dispatch(self) -> None:
        """Place as many ready blocks as will fit, in launch order.

        Dispatch is head-of-line per launch (blocks of one grid issue in
        order), but a stalled launch does not prevent other active launches
        from dispatching — matching concurrent-kernel execution.
        """
        if self._dispatching:
            return  # re-entrancy guard: admit() may trigger retire cascades
        self._dispatching = True
        try:
            progress = True
            while progress:
                progress = False
                for launch in list(self._active):
                    while True:
                        block = launch.next_block()
                        if block is None:
                            break
                        sm = self._pick_sm(block)
                        if sm is None:
                            break
                        launch.pop_block()
                        # Count before admit(): a block program that ends
                        # immediately retires from inside the admit call.
                        self.resident_count += 1
                        sm.admit(block)
                        progress = True
                self._active = [
                    ln for ln in self._active if ln.next_block() is not None
                ]
        finally:
            self._dispatching = False

    def _on_block_retired(self, block: ThreadBlock) -> None:
        self.resident_count -= 1
        launch = block.launch
        sm = block.sm
        if launch is not None and sm is not None:
            launch.block_retired(sm.engine.now)
            if launch.done and self.obs is not None:
                self.obs.emit(
                    KernelRetired(
                        t=sm.engine.now,
                        launch_id=launch.launch_id,
                        kernel=launch.kernel.name,
                    )
                )
        self.dispatch()
