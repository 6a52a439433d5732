"""Unified observability layer: structured events, metrics, exporters.

The simulator's components (device, SMs, scheduler, queue sets, run
context, runners) each hold an optional :class:`~repro.obs.events.EventBus`
reference and emit typed events only when one is attached — tracing is
zero-cost when off.  The usual entry point is :class:`Observer`::

    from repro.gpu.device import GPUDevice
    from repro.obs import Observer

    device = GPUDevice(spec)
    observer = Observer().attach(device)
    result = model.run(pipeline, device, executor, items)
    report = observer.finalize(result)      # RunReport, also on result
    observer.write_trace("trace.json")      # open in Perfetto

See ``docs/observability.md`` for the event schema and report fields.
"""

from __future__ import annotations

from typing import Optional

from .depth import DepthSeries
from .events import EVENT_TYPES, EventBus
from .export import chrome_trace, write_chrome_trace, write_report_json
from .hist import LogBucketHistogram, WindowSeries
from .recorder import EventRecorder
from .report import QueueDepthSummary, RunReport, SMActivity, StageTaskStats
from .spans import RequestItem, RequestSpan, RequestTracker


class Observer:
    """Bundles a bus + recorder and builds reports/exports from a run."""

    def __init__(self) -> None:
        self.bus = EventBus()
        self.recorder = EventRecorder()
        self.bus.subscribe(self.recorder)
        self.device = None

    def attach(self, device) -> "Observer":
        """Subscribe to ``device`` (must happen before the run starts)."""
        device.attach_observer(self.bus)
        self.device = device
        return self

    # ------------------------------------------------------------------
    @property
    def events(self) -> list:
        return self.recorder.events

    def build_report(
        self,
        label: str = "",
        stage_stats: Optional[dict] = None,
    ) -> RunReport:
        if self.device is None:
            raise RuntimeError("Observer.attach(device) was never called")
        device = self.device
        elapsed = max(device.engine.now, device.host_time)
        return RunReport.from_events(
            self.recorder.events,
            device.spec,
            elapsed_cycles=elapsed,
            stage_stats=stage_stats,
            label=label,
        )

    def finalize(self, result, label: str = "") -> RunReport:
        """Build the run's report and attach it to a ``RunResult``."""
        report = self.build_report(
            label=label or result.model, stage_stats=result.stage_stats
        )
        result.report = report
        return report

    # ------------------------------------------------------------------
    def write_trace(self, path: str, label: str = "") -> None:
        if self.device is None:
            raise RuntimeError("Observer.attach(device) was never called")
        write_chrome_trace(
            path, self.recorder.events, self.device.spec, label=label
        )

    def canonical_lines(self) -> list[str]:
        return self.recorder.canonical_lines()


__all__ = [
    "DepthSeries",
    "EVENT_TYPES",
    "EventBus",
    "EventRecorder",
    "LogBucketHistogram",
    "Observer",
    "QueueDepthSummary",
    "RequestItem",
    "RequestSpan",
    "RequestTracker",
    "RunReport",
    "SMActivity",
    "StageTaskStats",
    "WindowSeries",
    "chrome_trace",
    "write_chrome_trace",
    "write_report_json",
]
