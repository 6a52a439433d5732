"""Discrete-event GPU simulator substrate.

This subpackage is the stand-in for real CUDA hardware: streaming
multiprocessors with occupancy-limited block residency, a hardware block
scheduler, in-order streams with concurrent-kernel execution, kernel-launch
and PCIe-transfer overheads, and a processor-sharing compute throughput
model with memory-latency hiding.

See DESIGN.md §2 for the substitution argument (why a simulator preserves
the behaviours the paper's evaluation depends on).
"""

from .block import ThreadBlock, one_segment
from .device import GPUDevice, SimulationDeadlock
from .engine import Engine
from .kernel import KernelSpec, fuse_specs
from .metrics import DeviceMetrics
from .occupancy import OccupancyReport, max_blocks_per_sm, occupancy_report
from .scheduler import HardwareScheduler, KernelLaunch, Stream
from .sm import StreamingMultiprocessor
from .specs import GTX1080, K20C, PRESETS, GPUSpec, get_spec

__all__ = [
    "DeviceMetrics",
    "Engine",
    "GPUDevice",
    "GPUSpec",
    "GTX1080",
    "HardwareScheduler",
    "K20C",
    "KernelLaunch",
    "KernelSpec",
    "OccupancyReport",
    "PRESETS",
    "SimulationDeadlock",
    "Stream",
    "StreamingMultiprocessor",
    "ThreadBlock",
    "fuse_specs",
    "get_spec",
    "max_blocks_per_sm",
    "occupancy_report",
    "one_segment",
]
