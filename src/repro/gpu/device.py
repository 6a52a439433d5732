"""GPU device facade.

:class:`GPUDevice` ties the engine, SMs, streams and hardware scheduler
together and exposes the operations execution models need:

* ``launch(...)`` — issue a grid of blocks into a stream at a given host
  time (launch overhead and dispatch latency are charged automatically);
* ``synchronize()`` — run the event engine until the device is idle,
  with deadlock detection;
* ``memcpy_cycles(...)`` — host<->device transfer cost model;
* per-run :class:`~repro.gpu.metrics.DeviceMetrics`.

A device instance represents **one run**: models create a fresh device
per measurement so metrics and the clock start at zero.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..obs.events import EventBus, HostSync, KernelLaunched, Memcpy
from .block import ThreadBlock
from .engine import Engine
from .kernel import KernelSpec
from .metrics import DeviceMetrics
from .scheduler import HardwareScheduler, KernelLaunch, Stream
from .sm import StreamingMultiprocessor
from .specs import GPUSpec


class SimulationDeadlock(RuntimeError):
    """The event heap drained while launched work was still incomplete."""


class GPUDevice:
    """A simulated GPU plus its host-side timeline."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.engine = Engine()
        self.sms = [
            StreamingMultiprocessor(i, spec, self.engine)
            for i in range(spec.num_sms)
        ]
        self.scheduler = HardwareScheduler(self.sms)
        self.metrics = DeviceMetrics()
        self.default_stream = Stream(self.scheduler)
        #: Host-side clock, in device cycles.  Models advance it as they
        #: perform host work (launch calls, synchronisation, memcpys).
        self.host_time = 0.0
        self._launches: list[KernelLaunch] = []
        #: Launches issued but not yet complete.
        self._incomplete_launches = 0
        #: Raised whenever a run on this device may be over: when a run
        #: starts, when the last issued launch completes, and by the
        #: layers above where their own end conditions turn true (the run
        #: context's outstanding work reaching zero, a KBK group runner
        #: finishing).  :meth:`run_engine` hands it to the engine as
        #: ``until_flag``, so the run's ``until`` predicate is called
        #: once per raise instead of once per event.
        self.done_flag: list[bool] = [True]
        #: Optional telemetry bus (see :meth:`attach_observer`).  Every
        #: emitter guards on ``None`` so no event objects are allocated
        #: unless an observer subscribed — tracing is zero-cost when off.
        self.obs: Optional[EventBus] = None

    # ------------------------------------------------------------------
    # Streams and launches.
    # ------------------------------------------------------------------
    def create_stream(self) -> Stream:
        return Stream(self.scheduler)

    def launch(
        self,
        kernel: KernelSpec,
        program: Callable[[ThreadBlock], None],
        num_blocks: int,
        stream: Optional[Stream] = None,
        sm_filter: Optional[frozenset[int]] = None,
        per_block_sm: Optional[Sequence[Optional[frozenset[int]]]] = None,
        on_complete: Optional[Callable[[KernelLaunch], None]] = None,
        charge_host: bool = True,
    ) -> KernelLaunch:
        """Issue a grid of ``num_blocks`` blocks running ``program``.

        The launch is charged ``kernel_launch_us`` on the host timeline
        (unless ``charge_host`` is False, e.g. for device-side DP launches)
        and arrives at the device ``launch_latency_us`` later.
        ``per_block_sm`` optionally gives each block its own SM filter
        (used by the fine-pipeline block-mapping controller).
        """
        if num_blocks < 0:
            raise ValueError("num_blocks must be >= 0")
        if per_block_sm is not None and len(per_block_sm) != num_blocks:
            raise ValueError("per_block_sm must have one entry per block")
        stream = stream or self.default_stream
        if charge_host:
            self.host_time = (
                max(self.host_time, self.engine.now)
                + self.spec.us_to_cycles(self.spec.kernel_launch_us)
            )
        blocks = []
        for i in range(num_blocks):
            filt = per_block_sm[i] if per_block_sm is not None else sm_filter
            blocks.append(
                ThreadBlock(kernel, program, sm_filter=filt, tag=i)
            )
        launch = KernelLaunch(kernel, blocks, stream)
        launch.issue_cycle = max(self.host_time, self.engine.now)
        self.metrics.kernel_launches += 1
        self.metrics.blocks_launched += num_blocks
        if on_complete is not None:
            launch.add_completion_callback(on_complete)
        # Track completion incrementally (an empty grid completes inside
        # the add_completion_callback call, so count it first).
        self._incomplete_launches += 1
        launch.add_completion_callback(self._note_launch_done)
        arrival = launch.issue_cycle + self.spec.us_to_cycles(
            self.spec.launch_latency_us
        )
        self.engine.schedule_call_at(arrival, stream.enqueue, launch)
        self._launches.append(launch)
        if self.obs is not None:
            self.obs.emit(
                KernelLaunched(
                    t=launch.issue_cycle,
                    launch_id=launch.launch_id,
                    kernel=kernel.name,
                    num_blocks=num_blocks,
                    stream_id=stream.stream_id,
                )
            )
        return launch

    # ------------------------------------------------------------------
    # Synchronisation.
    # ------------------------------------------------------------------
    def _note_launch_done(self, launch: KernelLaunch) -> None:
        self._incomplete_launches -= 1
        if self._incomplete_launches == 0:
            self.done_flag[0] = True

    def _all_done(self) -> bool:
        return self._incomplete_launches == 0

    def synchronize(self, charge_host: bool = True) -> None:
        """Run the engine until every issued launch has completed."""
        self.run_engine(until=self._all_done)
        if not self._all_done():
            pending = [launch for launch in self._launches if not launch.done]
            raise SimulationDeadlock(
                f"{len(pending)} launches incomplete with an empty event heap: "
                + ", ".join(
                    f"{launch.kernel.name}({launch._outstanding} blocks left)"
                    for launch in pending[:8]
                )
            )
        self.host_time = max(self.host_time, self.engine.now)
        if charge_host:
            self.charge_sync(source="sync")

    def charge_sync(self, source: str = "wave") -> None:
        """Charge one host-side synchronisation on the host timeline.

        ``source`` labels the sync in telemetry: ``"sync"`` for explicit
        device synchronisation, ``"wave"`` for the implicit per-wave
        barrier of the KBK drivers.
        """
        cycles = self.spec.us_to_cycles(self.spec.sync_overhead_us)
        self.host_time = max(self.host_time, self.engine.now) + cycles
        if self.obs is not None:
            self.obs.emit(
                HostSync(t=self.engine.now, source=source, cycles=cycles)
            )

    def run_engine(
        self,
        until: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Run the engine until ``until()`` holds, the heap drains, or the
        clock passes ``deadline``.

        ``until`` is called only while :attr:`done_flag` is raised, so
        every change that can make it true must raise the flag.
        """
        self.done_flag[0] = True  # a run that is already over runs nothing
        self.engine.run(
            until=until,
            deadline=deadline,
            until_flag=None if until is None else self.done_flag,
        )

    # ------------------------------------------------------------------
    # Host <-> device transfers.
    # ------------------------------------------------------------------
    def memcpy_cycles(self, num_bytes: int) -> float:
        """Cycles consumed by one host<->device copy of ``num_bytes``."""
        us = self.spec.pcie_latency_us + (num_bytes / (self.spec.pcie_gbps * 1e3))
        return self.spec.us_to_cycles(us)

    def memcpy_h2d(self, num_bytes: int) -> None:
        self.metrics.host_to_device_copies += 1
        self.metrics.bytes_copied += num_bytes
        cycles = self.memcpy_cycles(num_bytes)
        self.host_time = max(self.host_time, self.engine.now) + cycles
        if self.obs is not None:
            self.obs.emit(
                Memcpy(
                    t=self.engine.now,
                    direction="h2d",
                    num_bytes=num_bytes,
                    cycles=cycles,
                )
            )

    def memcpy_d2h(self, num_bytes: int) -> None:
        self.metrics.device_to_host_copies += 1
        self.metrics.bytes_copied += num_bytes
        cycles = self.memcpy_cycles(num_bytes)
        self.host_time = max(self.host_time, self.engine.now) + cycles
        if self.obs is not None:
            self.obs.emit(
                Memcpy(
                    t=self.engine.now,
                    direction="d2h",
                    num_bytes=num_bytes,
                    cycles=cycles,
                )
            )

    # ------------------------------------------------------------------
    # Observation.
    # ------------------------------------------------------------------
    def attach_observer(self, bus) -> None:
        """Attach a telemetry :class:`~repro.obs.events.EventBus` to the
        device, its SMs and the hardware scheduler.

        Must be called before the run starts; components created later
        from this device (e.g. the run context's queue set) pick the
        bus up from ``self.obs``.  Use :class:`repro.obs.Observer` for
        the bundled bus + recorder + report workflow.
        """
        self.obs = bus
        for sm in self.sms:
            sm.obs = bus
        self.scheduler.obs = bus

    def resident_blocks(self) -> int:
        return self.scheduler.resident_count

    def note_residency(self) -> None:
        """Update the peak-resident-blocks metric (models call this after
        dispatch points of interest)."""
        count = self.scheduler.resident_count
        if count > self.metrics.peak_resident_blocks:
            self.metrics.peak_resident_blocks = count

    def finalize_metrics(self) -> DeviceMetrics:
        """Close out per-SM counters and the elapsed clock."""
        for sm in self.sms:
            sm._sync()
            self.metrics.sm_busy_lane_cycles[sm.sm_id] = sm.busy_lane_cycles
        self.metrics.elapsed_cycles = max(self.engine.now, self.host_time)
        return self.metrics

    @property
    def elapsed_ms(self) -> float:
        return self.spec.cycles_to_ms(max(self.engine.now, self.host_time))
