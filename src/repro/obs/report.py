"""Structured run reports derived from the event stream.

A :class:`RunReport` condenses one run's telemetry into the quantities
the paper argues from:

* **per-stage task-latency histograms** — how long items sat in each
  stage's queue (FIFO-matched push/pop event pairs, per shard), kept
  in milliseconds by :class:`~repro.obs.hist.LogBucketHistogram`, plus
  the per-stage task counts and busy cycles already kept by the run
  context;
* **per-SM busy / stall / starved breakdown** — *busy*: at least one
  compute segment draining; *stalled*: blocks resident but none
  computing (fetch latency, queue operations, min-cycle floors);
  *starved*: no blocks resident at all;
* **per-queue depth / contention summaries** — peak and time-weighted
  mean depth, push/pop/steal counts per stage.

Reports are mergeable (:meth:`RunReport.merge` /
:meth:`RunReport.aggregate`) so the harness can roll up whole
(workload x model x device) sweeps; histograms, integer counters and
queue peaks merge exactly, so any grouping of a sweep rolls up to the
same values.  Reports are JSON-serialisable
(:meth:`RunReport.to_dict`) for the CLI's ``--report-json`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .hist import LogBucketHistogram


@dataclass
class SMActivity:
    """Busy / stalled / starved cycle totals for one SM."""

    busy_cycles: float = 0.0
    stall_cycles: float = 0.0
    starved_cycles: float = 0.0
    blocks_admitted: int = 0

    @property
    def elapsed(self) -> float:
        return self.busy_cycles + self.stall_cycles + self.starved_cycles

    def shares(self) -> tuple[float, float, float]:
        total = self.elapsed
        if total <= 0:
            return (0.0, 0.0, 0.0)
        return (
            self.busy_cycles / total,
            self.stall_cycles / total,
            self.starved_cycles / total,
        )

    def merge(self, other: "SMActivity") -> None:
        self.busy_cycles += other.busy_cycles
        self.stall_cycles += other.stall_cycles
        self.starved_cycles += other.starved_cycles
        self.blocks_admitted += other.blocks_admitted

    def to_dict(self) -> dict:
        busy, stall, starved = self.shares()
        return {
            "busy_cycles": self.busy_cycles,
            "stall_cycles": self.stall_cycles,
            "starved_cycles": self.starved_cycles,
            "busy_share": busy,
            "stall_share": stall,
            "starved_share": starved,
            "blocks_admitted": self.blocks_admitted,
        }


@dataclass
class QueueDepthSummary:
    """Depth and contention summary of one stage queue."""

    peak: int = 0
    pushes: int = 0
    pops: int = 0
    items_popped: int = 0
    steals: int = 0
    #: Integral of depth over time plus the observed span, for the
    #: time-weighted mean (kept separately so summaries merge exactly).
    depth_integral: float = 0.0
    observed_cycles: float = 0.0

    @property
    def mean_depth(self) -> float:
        if self.observed_cycles <= 0:
            return 0.0
        return self.depth_integral / self.observed_cycles

    def merge(self, other: "QueueDepthSummary") -> None:
        self.peak = max(self.peak, other.peak)
        self.pushes += other.pushes
        self.pops += other.pops
        self.items_popped += other.items_popped
        self.steals += other.steals
        self.depth_integral += other.depth_integral
        self.observed_cycles += other.observed_cycles

    def to_dict(self) -> dict:
        return {
            "peak": self.peak,
            "mean_depth": self.mean_depth,
            "pushes": self.pushes,
            "pops": self.pops,
            "items_popped": self.items_popped,
            "steals": self.steals,
        }


@dataclass
class StageTaskStats:
    """Executed-task totals for one stage (from the run context)."""

    tasks: int = 0
    busy_cycles: float = 0.0

    def merge(self, other: "StageTaskStats") -> None:
        self.tasks += other.tasks
        self.busy_cycles += other.busy_cycles

    def to_dict(self) -> dict:
        return {"tasks": self.tasks, "busy_cycles": self.busy_cycles}


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    covered = 0.0
    intervals.sort()
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return covered + (cur_end - cur_start)


@dataclass
class RunReport:
    """The structured telemetry of one (or an aggregate of) run(s)."""

    label: str = ""
    runs: int = 1
    elapsed_cycles: float = 0.0
    elapsed_ms: float = 0.0
    num_events: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    #: Queue waits per stage, in milliseconds.
    stage_latency: dict[str, LogBucketHistogram] = field(default_factory=dict)
    stage_tasks: dict[str, StageTaskStats] = field(default_factory=dict)
    sm_activity: dict[int, SMActivity] = field(default_factory=dict)
    queue_depth: dict[str, QueueDepthSummary] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction from an event stream.
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Sequence,
        spec,
        elapsed_cycles: float,
        stage_stats: Optional[dict] = None,
        label: str = "",
        num_sms: Optional[int] = None,
    ) -> "RunReport":
        """Derive a report from a recorded event stream.

        ``spec`` is the :class:`~repro.gpu.specs.GPUSpec` of the run
        (for cycle->ms conversion and SM enumeration);``stage_stats``
        is the run's ``{stage: StageRunStats}`` mapping, if available.
        """
        report = cls(
            label=label,
            elapsed_cycles=elapsed_cycles,
            elapsed_ms=spec.cycles_to_ms(elapsed_cycles),
            num_events=len(events),
        )
        counters: dict[str, float] = {
            "kernel_launches": 0,
            "kernel_retires": 0,
            "blocks_admitted": 0,
            "blocks_exited": 0,
            "compute_segments": 0,
            "queue_pushes": 0,
            "queue_pops": 0,
            "queue_steals": 0,
            "host_syncs": 0,
            "host_sync_cycles": 0.0,
            "memcpys": 0,
            "memcpy_bytes": 0,
            "memcpy_cycles": 0.0,
            "adaptations": 0,
            "group_exits": 0,
        }

        cycles_to_ms = spec.cycles_to_ms
        # FIFO push-time ledger per (stage, shard) for latency matching.
        pending: dict[tuple[str, int], list[float]] = {}
        heads: dict[tuple[str, int], int] = {}
        # Depth integration state per stage.
        depth_at: dict[str, tuple[float, int]] = {}
        # Interval collections per SM.
        busy_ivs: dict[int, list[tuple[float, float]]] = {}
        resident_since: dict[int, tuple[float, int]] = {}
        occupied_ivs: dict[int, list[tuple[float, float]]] = {}
        resident_count: dict[int, int] = {}
        admitted: dict[int, int] = {}

        def queue_summary(stage: str) -> QueueDepthSummary:
            summary = report.queue_depth.get(stage)
            if summary is None:
                summary = report.queue_depth[stage] = QueueDepthSummary()
            return summary

        def integrate(stage: str, t: float, depth: int) -> None:
            last = depth_at.get(stage)
            if last is not None:
                last_t, last_depth = last
                queue_summary(stage).depth_integral += last_depth * (
                    t - last_t
                )
            depth_at[stage] = (t, depth)

        def note_resident_edge(sm: int, t: float, delta: int) -> None:
            count = resident_count.get(sm, 0)
            if count == 0 and delta > 0:
                resident_since[sm] = (t, 0)
            count += delta
            resident_count[sm] = count
            if count == 0 and delta < 0:
                start, _ = resident_since.pop(sm)
                occupied_ivs.setdefault(sm, []).append((start, t))

        for event in events:
            kind = event.kind
            if kind == "queue_push":
                counters["queue_pushes"] += 1
                summary = queue_summary(event.stage)
                summary.pushes += 1
                if event.depth > summary.peak:
                    summary.peak = event.depth
                integrate(event.stage, event.t, event.depth)
                pending.setdefault((event.stage, event.shard), []).append(
                    event.t
                )
            elif kind == "queue_pop":
                counters["queue_pops"] += 1
                summary = queue_summary(event.stage)
                summary.pops += 1
                summary.items_popped += event.count
                if event.stolen:
                    counters["queue_steals"] += 1
                    summary.steals += 1
                integrate(event.stage, event.t, event.depth)
                key = (event.stage, event.shard)
                times = pending.get(key)
                if times:
                    head = heads.get(key, 0)
                    histogram = report.stage_latency.get(event.stage)
                    if histogram is None:
                        histogram = report.stage_latency[
                            event.stage
                        ] = LogBucketHistogram()
                    stop = min(head + event.count, len(times))
                    for i in range(head, stop):
                        histogram.add(cycles_to_ms(event.t - times[i]))
                    heads[key] = stop
            elif kind == "compute":
                counters["compute_segments"] += 1
                busy_ivs.setdefault(event.sm_id, []).append(
                    (event.start, event.t)
                )
            elif kind == "block_admit":
                counters["blocks_admitted"] += 1
                admitted[event.sm_id] = admitted.get(event.sm_id, 0) + 1
                note_resident_edge(event.sm_id, event.t, +1)
            elif kind == "block_exit":
                counters["blocks_exited"] += 1
                note_resident_edge(event.sm_id, event.t, -1)
            elif kind == "kernel_launch":
                counters["kernel_launches"] += 1
            elif kind == "kernel_retire":
                counters["kernel_retires"] += 1
            elif kind == "host_sync":
                counters["host_syncs"] += 1
                counters["host_sync_cycles"] += event.cycles
            elif kind == "memcpy":
                counters["memcpys"] += 1
                counters["memcpy_bytes"] += event.num_bytes
                counters["memcpy_cycles"] += event.cycles
            elif kind == "adaptation":
                counters["adaptations"] += 1
            elif kind == "group_exit":
                counters["group_exits"] += 1

        # Close the depth integrals at the end of the run.
        for stage, (last_t, last_depth) in depth_at.items():
            summary = queue_summary(stage)
            summary.depth_integral += last_depth * (elapsed_cycles - last_t)
            summary.observed_cycles += elapsed_cycles

        # Close residency intervals still open at the end of the run.
        for sm, (start, _) in list(resident_since.items()):
            occupied_ivs.setdefault(sm, []).append((start, elapsed_cycles))
        resident_since.clear()

        sm_ids = range(num_sms if num_sms is not None else spec.num_sms)
        for sm in sm_ids:
            busy = _interval_union(busy_ivs.get(sm, []))
            occupied = _interval_union(occupied_ivs.get(sm, []))
            occupied = max(occupied, busy)
            report.sm_activity[sm] = SMActivity(
                busy_cycles=busy,
                stall_cycles=occupied - busy,
                starved_cycles=max(0.0, elapsed_cycles - occupied),
                blocks_admitted=admitted.get(sm, 0),
            )

        if stage_stats:
            for stage, stats in stage_stats.items():
                report.stage_tasks[stage] = StageTaskStats(
                    tasks=stats.tasks, busy_cycles=stats.busy_cycles
                )

        report.counters = counters
        return report

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------
    def merge(self, other: "RunReport") -> None:
        """Fold ``other`` into this report (sums, maxes, histograms)."""
        self.runs += other.runs
        self.elapsed_cycles += other.elapsed_cycles
        self.elapsed_ms += other.elapsed_ms
        self.num_events += other.num_events
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for stage, histogram in other.stage_latency.items():
            self.stage_latency.setdefault(
                stage, LogBucketHistogram()
            ).merge(histogram)
        for stage, stats in other.stage_tasks.items():
            self.stage_tasks.setdefault(stage, StageTaskStats()).merge(stats)
        for sm, activity in other.sm_activity.items():
            self.sm_activity.setdefault(sm, SMActivity()).merge(activity)
        for stage, summary in other.queue_depth.items():
            self.queue_depth.setdefault(
                stage, QueueDepthSummary()
            ).merge(summary)

    @classmethod
    def aggregate(
        cls, reports: Iterable["RunReport"], label: str = "aggregate"
    ) -> "RunReport":
        """Roll a sweep's reports into one (the harness's entry point)."""
        result = cls(label=label, runs=0)
        for report in reports:
            result.merge(report)
        return result

    # ------------------------------------------------------------------
    # Serialisation and display.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "runs": self.runs,
            "elapsed_cycles": self.elapsed_cycles,
            "elapsed_ms": self.elapsed_ms,
            "num_events": self.num_events,
            "counters": dict(self.counters),
            "stage_latency": {
                stage: h.to_dict() for stage, h in self.stage_latency.items()
            },
            "stage_tasks": {
                stage: s.to_dict() for stage, s in self.stage_tasks.items()
            },
            "sm_activity": {
                str(sm): a.to_dict() for sm, a in self.sm_activity.items()
            },
            "queue_depth": {
                stage: q.to_dict() for stage, q in self.queue_depth.items()
            },
        }

    def summary_text(self) -> str:
        """The ``repro stats`` rendering: latency percentiles, SM shares,
        queue depths — one human-readable block."""
        lines = []
        if self.label:
            lines.append(f"run: {self.label}")
        lines.append(
            f"elapsed: {self.elapsed_ms:.3f} ms "
            f"({self.elapsed_cycles:.0f} cycles, {self.num_events} events)"
        )

        if self.stage_latency or self.stage_tasks:
            lines.append("")
            lines.append("per-stage task latency (queue wait, us):")
            lines.append(
                f"  {'stage':16s} {'tasks':>8s} {'p50':>10s} "
                f"{'p90':>10s} {'p99':>10s} {'mean':>10s} {'max':>10s}"
            )
            stages = list(self.stage_latency)
            for stage in self.stage_tasks:
                if stage not in self.stage_latency:
                    stages.append(stage)
            for stage in stages:
                histogram = self.stage_latency.get(
                    stage, LogBucketHistogram()
                )
                tasks = self.stage_tasks.get(stage, StageTaskStats()).tasks
                count = tasks or histogram.count
                lines.append(
                    f"  {stage:16s} {count:8d} "
                    f"{histogram.percentile(50) * 1000:10.2f} "
                    f"{histogram.percentile(90) * 1000:10.2f} "
                    f"{histogram.percentile(99) * 1000:10.2f} "
                    f"{histogram.mean * 1000:10.2f} "
                    f"{histogram.max * 1000:10.2f}"
                )

        if self.sm_activity:
            lines.append("")
            lines.append("per-SM activity (share of elapsed time):")
            lines.append(
                f"  {'sm':>4s} {'busy':>7s} {'stall':>7s} "
                f"{'starved':>8s} {'blocks':>7s}"
            )
            for sm in sorted(self.sm_activity):
                activity = self.sm_activity[sm]
                busy, stall, starved = activity.shares()
                lines.append(
                    f"  {sm:4d} {busy:6.1%} {stall:6.1%} "
                    f"{starved:7.1%} {activity.blocks_admitted:7d}"
                )

        if self.queue_depth:
            lines.append("")
            lines.append("per-queue depth / contention:")
            lines.append(
                f"  {'stage':16s} {'peak':>6s} {'mean':>8s} "
                f"{'pushes':>8s} {'pops':>8s} {'steals':>7s}"
            )
            for stage, summary in self.queue_depth.items():
                lines.append(
                    f"  {stage:16s} {summary.peak:6d} "
                    f"{summary.mean_depth:8.1f} {summary.pushes:8d} "
                    f"{summary.pops:8d} {summary.steals:7d}"
                )

        interesting = (
            "kernel_launches",
            "host_syncs",
            "memcpys",
            "queue_steals",
            "adaptations",
        )
        shown = {
            key: self.counters[key]
            for key in interesting
            if self.counters.get(key)
        }
        if shown:
            lines.append("")
            lines.append(
                "counters: "
                + "  ".join(f"{k}={int(v)}" for k, v in shown.items())
            )
        return "\n".join(lines)
