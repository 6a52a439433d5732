"""Streaming multiprocessor: resource accounting and processor sharing.

Each SM owns a register file, shared memory, thread and block-slot budgets
(admission control, i.e. occupancy), and a compute throughput model:

* The SM delivers ``cores_per_sm * u`` lane-cycles per cycle, where
  ``u = min(1, active_warps / warps_for_peak)`` models memory-latency
  hiding — an SM running a single 256-thread block is *not* at peak
  throughput, which is exactly why occupancy matters and why the paper's
  low-occupancy megakernels lose.
* Throughput is shared among resident computing blocks proportionally to
  their active thread counts (processor sharing), with each block capped at
  one lane per active thread.
* Kernels whose code footprint exceeds the instruction cache run at a
  reduced rate (the paper's "code footprint" metric, Figure 6).

The processor-sharing discipline requires rescaling in-flight work whenever
block residency changes; ``_sync`` drains elapsed work and ``_reschedule``
recomputes rates and the next completion event.

Because admission checks run for every SM on every dispatch attempt and
residency changes re-derive the latency-hiding factor, the SM keeps a
small per-kernel memo (register/shared-memory footprints, warps per
block, instruction-cache factor) and maintains resident-warp and
active-thread totals incrementally instead of recomputing them from the
resident/segment lists on every call.  The memo is keyed by the
(immutable, value-hashed) :class:`KernelSpec` itself, so two equal specs
share an entry and a recycled object identity can never alias stale
values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..obs.events import BlockAdmitted, BlockExited, ComputeSegment, EventBus
from .block import ThreadBlock
from .engine import Engine
from .kernel import KernelSpec
from .occupancy import registers_per_block, shared_mem_per_block
from .specs import GPUSpec

_EPS = 1e-7


class _KernelFootprint:
    """Memoised per-SM derived values of one kernel spec."""

    __slots__ = ("registers", "shared_mem", "threads", "warps", "code_factor")

    def __init__(self, kernel: KernelSpec, spec: GPUSpec) -> None:
        self.registers = registers_per_block(kernel, spec)
        self.shared_mem = shared_mem_per_block(kernel, spec)
        self.threads = kernel.threads_per_block
        self.warps = math.ceil(kernel.threads_per_block / spec.warp_size)
        over = kernel.code_bytes - spec.icache_bytes
        if over <= 0:
            self.code_factor = 1.0
        else:
            frac = min(1.0, over / spec.icache_bytes)
            self.code_factor = 1.0 + spec.icache_penalty * frac


class _Segment:
    """An in-flight Compute command of one block."""

    __slots__ = (
        "block",
        "remaining",
        "threads",
        "rate",
        "on_done",
        "icache_factor",
        "started",
        "work",
    )

    def __init__(self, block, work, threads, on_done, icache_factor, started):
        self.block = block
        self.remaining = float(work)
        self.work = float(work)
        self.threads = threads
        self.on_done = on_done
        self.rate = 0.0
        self.icache_factor = icache_factor
        self.started = started


class StreamingMultiprocessor:
    """One SM: admission control plus a shared compute pipeline."""

    def __init__(self, sm_id: int, spec: GPUSpec, engine: Engine) -> None:
        self.sm_id = sm_id
        self.spec = spec
        self.engine = engine
        self.registers_used = 0
        self.shared_mem_used = 0
        self.threads_used = 0
        self.resident_blocks: list[ThreadBlock] = []
        self._segments: dict[int, _Segment] = {}
        self._last_sync = 0.0
        #: Next-completion tick, re-armed on every residency change.
        self._tick_timer = engine.timer(self._tick)
        self.on_retire: Optional[Callable[[ThreadBlock], None]] = None
        #: Optional telemetry bus (set via GPUDevice.attach_observer).
        #: Every emission is guarded so nothing is allocated when unset.
        self.obs: Optional[EventBus] = None
        #: Incrementally maintained totals (admission / throughput).
        self._resident_warps = 0
        self._active_threads = 0
        # Metrics.
        self.busy_lane_cycles = 0.0
        self.blocks_admitted = 0

    def _footprint(self, kernel: KernelSpec) -> _KernelFootprint:
        # The footprint depends only on (kernel, device spec), so it is
        # cached on the kernel object itself (admission and add_work
        # consult it per call; a dict lookup would hash the spec's five
        # fields every time).  The spec guard keeps multi-device setups
        # with differing specs correct — they just re-derive on switch.
        cached = getattr(kernel, "_fp_cache", None)
        if cached is not None and cached[0] is self.spec:
            return cached[1]
        fp = _KernelFootprint(kernel, self.spec)
        object.__setattr__(kernel, "_fp_cache", (self.spec, fp))
        return fp

    # ------------------------------------------------------------------
    # Admission control (occupancy).
    # ------------------------------------------------------------------
    def can_admit(self, kernel: KernelSpec) -> bool:
        """Would a block of ``kernel`` fit given current residency?"""
        spec = self.spec
        if len(self.resident_blocks) >= spec.max_blocks_per_sm:
            return False
        fp = self._footprint(kernel)
        if self.threads_used + fp.threads > spec.max_threads_per_sm:
            return False
        if self.registers_used + fp.registers > spec.registers_per_sm:
            return False
        if self.shared_mem_used + fp.shared_mem > spec.shared_mem_per_sm:
            return False
        return True

    def admit(self, block: ThreadBlock) -> None:
        """Allocate resources for ``block`` and start its program."""
        kernel = block.kernel
        assert self.can_admit(kernel), "admit() without capacity"
        fp = self._footprint(kernel)
        self.registers_used += fp.registers
        self.shared_mem_used += fp.shared_mem
        self.threads_used += fp.threads
        self._resident_warps += fp.warps
        self.resident_blocks.append(block)
        self.blocks_admitted += 1
        block.sm = self
        if self.obs is not None:
            self.obs.emit(
                BlockAdmitted(
                    t=self.engine.now,
                    sm_id=self.sm_id,
                    block_id=block.block_id,
                    kernel=kernel.name,
                    threads=kernel.threads_per_block,
                )
            )
        block.start()

    def retire(self, block: ThreadBlock) -> None:
        """Free ``block``'s resources (called when its program ends)."""
        kernel = block.kernel
        fp = self._footprint(kernel)
        self.resident_blocks.remove(block)
        self.registers_used -= fp.registers
        self.shared_mem_used -= fp.shared_mem
        self.threads_used -= fp.threads
        self._resident_warps -= fp.warps
        if self.obs is not None:
            self.obs.emit(
                BlockExited(
                    t=self.engine.now,
                    sm_id=self.sm_id,
                    block_id=block.block_id,
                    kernel=kernel.name,
                )
            )
        if self.on_retire is not None:
            self.on_retire(block)

    # ------------------------------------------------------------------
    # Processor-sharing compute model.
    # ------------------------------------------------------------------
    def _code_factor(self, kernel: KernelSpec) -> float:
        """Instruction-cache slowdown for a kernel's code footprint."""
        return self._footprint(kernel).code_factor

    def add_work(
        self,
        block: ThreadBlock,
        work: float,
        threads: int,
        on_done: Callable[[], None],
    ) -> None:
        """Register a Compute segment for a resident block."""
        self._sync()
        if work <= _EPS:
            # Zero-cost compute completes immediately (but asynchronously,
            # to keep the event ordering uniform).
            self.engine.schedule_call(0.0, on_done)
            return
        seg = _Segment(
            block,
            work,
            threads,
            on_done,
            self._footprint(block.kernel).code_factor,
            self.engine.now,
        )
        self._segments[block.block_id] = seg
        self._active_threads += threads
        self._reschedule()

    def active_threads(self) -> int:
        return self._active_threads

    def _utilization(self) -> float:
        """Latency-hiding factor from resident warps.

        All resident warps count, not only those in a Compute segment: an
        idle persistent block busy-polls its work queue, so its warps still
        occupy scheduler slots and cover memory latency for the others.
        """
        warps = self._resident_warps
        if warps <= 0:
            return 0.0
        return min(1.0, warps / self.spec.warps_for_peak)

    def _sync(self) -> None:
        """Drain elapsed work from all segments up to the current time."""
        now = self.engine.now
        elapsed = now - self._last_sync
        if elapsed > 0:
            for seg in self._segments.values():
                drained = seg.rate * elapsed
                rem = seg.remaining - drained
                seg.remaining = rem if rem > 0.0 else 0.0
                self.busy_lane_cycles += drained
        self._last_sync = now

    def _reschedule(self) -> None:
        """Recompute segment rates and the next completion tick."""
        segments = self._segments
        if not segments:
            self._tick_timer.disarm()
            return
        lanes = self.spec.cores_per_sm * self._utilization()
        total_threads = self._active_threads
        horizon = math.inf
        # NB: the share/rate expressions must stay byte-for-byte as in the
        # original per-call form — float arithmetic is not associative, and
        # any re-association would perturb event times and break the
        # bit-identical-schedule guarantee pinned by the golden tests.
        for seg in segments.values():
            share = lanes * (seg.threads / total_threads) if total_threads else 0.0
            # min(float(threads), share) written as a branch; value is
            # bit-identical either way.
            ft = float(seg.threads)
            rate = (ft if ft <= share else share) / seg.icache_factor
            seg.rate = rate
            if rate > 0:
                candidate = seg.remaining / rate
                if candidate < horizon:
                    horizon = candidate
        if math.isinf(horizon):
            raise RuntimeError("SM has compute segments but zero throughput")
        # Guarantee forward progress even when the horizon underflows.
        self._tick_timer.arm(max(horizon, 1e-9))

    def _tick(self) -> None:
        self._tick_timer.fired()
        self._sync()
        # The completion threshold scales with the drain rate: floating-point
        # cancellation can leave a residue of remaining work smaller than one
        # rate-tick, which would otherwise re-arm zero-length ticks forever.
        finished = [
            seg
            for seg in self._segments.values()
            if seg.remaining <= _EPS * max(1.0, seg.rate)
        ]
        now = self.engine.now
        for seg in finished:
            del self._segments[seg.block.block_id]
            self._active_threads -= seg.threads
            if self.obs is not None and now > seg.started:
                self.obs.emit(
                    ComputeSegment(
                        t=now,
                        sm_id=self.sm_id,
                        block_id=seg.block.block_id,
                        kernel=seg.block.kernel.name,
                        start=seg.started,
                        work=seg.work,
                    )
                )
        # Resuming blocks may add new segments (each add calls _reschedule);
        # make sure we also reschedule when nothing was added back.
        for seg in finished:
            seg.on_done()
        self._sync()
        self._reschedule()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SM{self.sm_id} blocks={len(self.resident_blocks)} "
            f"threads={self.threads_used} regs={self.registers_used}>"
        )
