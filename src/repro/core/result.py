"""Run results returned by every execution model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..gpu.metrics import DeviceMetrics
from ..obs.report import RunReport
from .queues import QueueStats
from .runcontext import StageRunStats


@dataclass
class RunResult:
    """Outcome of executing a pipeline under one execution model."""

    model: str
    time_ms: float
    cycles: float
    outputs: list[Any]
    device_metrics: DeviceMetrics
    stage_stats: dict[str, StageRunStats]
    queue_stats: dict[str, QueueStats] = field(default_factory=dict)
    config_description: str = ""
    extras: dict[str, Any] = field(default_factory=dict)
    #: Derived telemetry; populated only when the run was observed.
    report: Optional[RunReport] = None

    def summary(self) -> str:
        return (
            f"{self.model}: {self.time_ms:.3f} ms, "
            f"{self.device_metrics.kernel_launches} launches, "
            f"{self.device_metrics.blocks_launched} blocks, "
            f"{len(self.outputs)} outputs"
        )
