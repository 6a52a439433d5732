"""GPU device specifications.

The simulator is parameterised by a :class:`GPUSpec` that mirrors the
architectural parameters the paper's results depend on: the number of
streaming multiprocessors (SMs), the per-SM register file / shared memory /
thread / block limits that drive occupancy, the SM core count and clock that
drive throughput, and the host-side overheads (kernel launch, stream sync)
that drive the kernel-by-kernel model's costs.

Two presets match the paper's evaluation hardware: Tesla K20c (13 SMs,
Kepler SMX) and GeForce GTX 1080 (20 SMs, Pascal).  Five more presets
(H100, A100, V100, T4, MI250X) follow the PP-Gaia reproducibility table
so ``repro bench --device all`` sweeps the pipeline models across
architectures from Kepler to Hopper and CDNA 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GPUSpec:
    """Architectural description of a simulated GPU device."""

    name: str
    num_sms: int
    #: 32-bit registers per SM.
    registers_per_sm: int
    #: Register allocation granularity (registers are allocated per-thread in
    #: chunks of this size when computing occupancy).
    register_granularity: int
    #: Shared memory per SM, in bytes.
    shared_mem_per_sm: int
    #: Shared-memory allocation granularity in bytes.
    shared_mem_granularity: int
    #: Hardware limit on resident threads per SM.
    max_threads_per_sm: int
    #: Hardware limit on resident blocks per SM.
    max_blocks_per_sm: int
    #: Warp size (threads per warp).
    warp_size: int
    #: Scalar cores (SPs) per SM: the peak lane throughput per cycle.
    cores_per_sm: int
    #: Number of resident warps needed for the SM to reach peak throughput
    #: (models memory-latency hiding: fewer resident warps -> lower
    #: effective throughput).
    warps_for_peak: int
    #: Core clock in GHz.  Engine time is measured in cycles of this clock.
    clock_ghz: float
    #: Host-side cost of one kernel launch, in microseconds.
    kernel_launch_us: float
    #: Device-side latency from launch to first block dispatch, in
    #: microseconds.
    launch_latency_us: float
    #: Host-side cost of a stream/device synchronisation, in microseconds.
    sync_overhead_us: float
    #: Instruction-cache capacity per SM, in bytes.  Kernels whose code
    #: footprint exceeds it run slower (see ``icache_penalty``).
    icache_bytes: int = 8 * 1024
    #: Maximum relative slowdown from instruction-cache thrashing plus the
    #: intra-kernel divergence of fused multi-stage kernels (calibrated to
    #: the megakernel inefficiencies reported by Laine et al., "Megakernels
    #: Considered Harmful", HPG'13): rate /= (1 + penalty * overflow_frac).
    icache_penalty: float = 0.5
    #: Relative discount on the memory-bound fraction of a task's cost when
    #: its input data item was produced on the same SM (L1 locality).
    l1_locality_bonus: float = 0.25
    #: Fixed cost of a work-queue operation (atomic reservation), in cycles.
    queue_op_cycles: float = 180.0
    #: Additional queue cost per byte moved through the queue, in cycles.
    queue_cycles_per_byte: float = 0.6
    #: Extra queue cycles per concurrent accessor (contention model).
    queue_contention_cycles: float = 25.0
    #: Latency for an idle persistent block to notice a newly enqueued item,
    #: in cycles (polling interval).
    queue_poll_cycles: float = 400.0
    #: Dynamic-parallelism child-kernel launch overhead, in microseconds.
    dp_launch_us: float = 28.0
    #: Maximum dynamic-parallelism nesting depth supported by the hardware.
    dp_max_depth: int = 24
    #: Host<->device copy bandwidth over PCIe, in GB/s.
    pcie_gbps: float = 6.0
    #: Fixed latency of one host<->device copy, in microseconds.
    pcie_latency_us: float = 8.0

    def us_to_cycles(self, us: float) -> float:
        """Convert microseconds to cycles of this device's clock."""
        return us * self.clock_ghz * 1000.0

    def cycles_to_us(self, cycles: float) -> float:
        """Convert cycles of this device's clock to microseconds."""
        return cycles / (self.clock_ghz * 1000.0)

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert cycles of this device's clock to milliseconds."""
        return self.cycles_to_us(cycles) / 1000.0

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


#: Tesla K20c: 13 Kepler SMX units.  ``warps_for_peak`` is high because
#: Kepler needs substantial occupancy to hide memory latency.
K20C = GPUSpec(
    name="K20c",
    num_sms=13,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=48 * 1024,
    shared_mem_granularity=256,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    warp_size=32,
    cores_per_sm=192,
    warps_for_peak=24,
    clock_ghz=0.706,
    kernel_launch_us=6.0,
    launch_latency_us=3.0,
    sync_overhead_us=8.0,
)

#: GeForce GTX 1080: 20 Pascal SMs.  Higher clock, better latency hiding
#: (lower ``warps_for_peak``), cheaper launches.
GTX1080 = GPUSpec(
    name="GTX1080",
    num_sms=20,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=96 * 1024,
    shared_mem_granularity=256,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    warp_size=32,
    cores_per_sm=128,
    warps_for_peak=16,
    clock_ghz=1.607,
    kernel_launch_us=4.0,
    launch_latency_us=2.0,
    sync_overhead_us=5.0,
    pcie_gbps=11.0,
    pcie_latency_us=6.0,
)

#: The PP-Gaia cross-architecture table.  SM counts derive from the
#: table's core counts divided by cores-per-SM for each architecture
#: (Hopper/Ampere/Volta/Turing: 128/64/64/64 FP32 lanes per SM; CDNA 2:
#: 64 lanes per CU with 64-wide wavefronts).  Occupancy limits, clocks,
#: memory and L2 sizes follow the table and the vendors' whitepapers;
#: launch/sync overheads shrink with driver generation.

#: NVIDIA H100 SXM (Hopper): 132 SMs x 128 cores = 16896.
H100 = GPUSpec(
    name="H100",
    num_sms=132,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=228 * 1024,
    shared_mem_granularity=128,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    warp_size=32,
    cores_per_sm=128,
    warps_for_peak=12,
    clock_ghz=1.980,
    kernel_launch_us=3.0,
    launch_latency_us=1.5,
    sync_overhead_us=4.0,
    icache_bytes=32 * 1024,
    pcie_gbps=55.0,
    pcie_latency_us=4.0,
)

#: NVIDIA A100 (Ampere, full GA100 configuration): 124 SMs x 64 = 7936.
A100 = GPUSpec(
    name="A100",
    num_sms=124,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=164 * 1024,
    shared_mem_granularity=128,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    warp_size=32,
    cores_per_sm=64,
    warps_for_peak=12,
    clock_ghz=1.395,
    kernel_launch_us=3.5,
    launch_latency_us=1.8,
    sync_overhead_us=4.5,
    icache_bytes=32 * 1024,
    pcie_gbps=24.0,
    pcie_latency_us=5.0,
)

#: NVIDIA V100 (Volta): 80 SMs x 64 = 5120.
V100 = GPUSpec(
    name="V100",
    num_sms=80,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=96 * 1024,
    shared_mem_granularity=256,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    warp_size=32,
    cores_per_sm=64,
    warps_for_peak=14,
    clock_ghz=1.597,
    kernel_launch_us=4.0,
    launch_latency_us=2.0,
    sync_overhead_us=5.0,
    icache_bytes=12 * 1024,
    pcie_gbps=12.0,
    pcie_latency_us=6.0,
)

#: NVIDIA Tesla T4 (Turing): 40 SMs x 64 = 2560.  Turing caps resident
#: threads per SM at 1024.
T4 = GPUSpec(
    name="T4",
    num_sms=40,
    registers_per_sm=65536,
    register_granularity=256,
    shared_mem_per_sm=64 * 1024,
    shared_mem_granularity=256,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
    warp_size=32,
    cores_per_sm=64,
    warps_for_peak=12,
    clock_ghz=1.590,
    kernel_launch_us=4.0,
    launch_latency_us=2.0,
    sync_overhead_us=5.0,
    icache_bytes=12 * 1024,
    pcie_gbps=12.0,
    pcie_latency_us=6.0,
)

#: AMD Instinct MI250X, one GCD (CDNA 2): 110 CUs, 64-wide wavefronts,
#: 512 KB vector register file per CU (128K 32-bit registers).
MI250X = GPUSpec(
    name="MI250X",
    num_sms=110,
    registers_per_sm=131072,
    register_granularity=512,
    shared_mem_per_sm=64 * 1024,
    shared_mem_granularity=256,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    warp_size=64,
    cores_per_sm=64,
    warps_for_peak=8,
    clock_ghz=1.700,
    kernel_launch_us=5.0,
    launch_latency_us=2.5,
    sync_overhead_us=6.0,
    icache_bytes=32 * 1024,
    pcie_gbps=36.0,
    pcie_latency_us=5.0,
)

PRESETS = {
    spec.name: spec
    for spec in (K20C, GTX1080, H100, A100, V100, T4, MI250X)
}


def get_spec(name: str) -> GPUSpec:
    """Look up a preset spec by name (case-insensitive)."""
    for key, spec in PRESETS.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown GPU spec {name!r}; known: {sorted(PRESETS)}")
