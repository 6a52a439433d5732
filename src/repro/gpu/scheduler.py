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

import math
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
        self.stream = stream
        self.issue_cycle: float | None = None
        self._undispatched = list(reversed(blocks))  # pop() from the end
        self._outstanding = len(blocks)
        self._on_complete: list[Callable[["KernelLaunch"], None]] = []
        #: The head block found no SM; only a retirement on an SM in its
        #: filter can make room (see :meth:`HardwareScheduler.dispatch`).
        self.blocked = False
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

    def block_retired(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
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
        #: SM filter -> the SMs it admits, in id order.
        self._eligible: dict[
            Optional[frozenset[int]], list[StreamingMultiprocessor]
        ] = {}
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

        Ties break towards the lowest SM id: the scan runs in id order and
        only a strictly smaller ``threads_used`` replaces the best, so an
        SM that cannot beat the best is skipped before its admission test
        (pinned by the golden tests).
        """
        sm_filter = block.sm_filter
        eligible = self._eligible.get(sm_filter)
        if eligible is None:
            eligible = self._eligible[sm_filter] = [
                sm for sm in self.sms if sm_filter is None or sm.sm_id in sm_filter
            ]
        if not eligible:
            return None
        fp = eligible[0].footprint(block.kernel)
        best: Optional[StreamingMultiprocessor] = None
        least = math.inf
        for sm in eligible:
            if sm.threads_used < least and sm.can_admit(fp):
                best = sm
                least = sm.threads_used
        return best

    def dispatch(self) -> None:
        """Place as many ready blocks as will fit, in launch order.

        Dispatch is head-of-line per launch (blocks of one grid issue in
        order), but a stalled launch does not prevent other active launches
        from dispatching — matching concurrent-kernel execution.

        A launch whose head block found no SM stays ``blocked``, and is
        not scanned, until a block retires on an SM in the head block's
        filter.  That is exact: admissions only shrink capacity, and
        every retirement dispatches.
        """
        if self._dispatching:
            return  # re-entrancy guard: admit() may trigger retire cascades
        self._dispatching = True
        try:
            progress = True
            while progress:
                progress = False
                for launch in list(self._active):
                    if launch.blocked:
                        continue
                    while True:
                        block = launch.next_block()
                        if block is None:
                            break
                        sm = self._pick_sm(block)
                        if sm is None:
                            launch.blocked = True
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
            launch.block_retired()
            if launch.done and self.obs is not None:
                self.obs.emit(
                    KernelRetired(
                        t=sm.engine.now,
                        launch_id=launch.launch_id,
                        kernel=launch.kernel.name,
                    )
                )
        if sm is not None:
            for other in self._active:
                if other.blocked:
                    head = other.next_block()
                    assert head is not None  # a blocked launch keeps its head
                    if head.sm_filter is None or sm.sm_id in head.sm_filter:
                        other.blocked = False
        self.dispatch()
