"""The :class:`ServeReport`: everything one serving run measured.

A report rolls the per-request spans into streaming aggregates — an
end-to-end latency histogram (p50/p99/p999), per-stage queue-wait and
service histograms, fixed-window arrival/completion/goodput series, and
an :class:`~repro.serve.slo.SLOTracker` — all of which merge *exactly*.
Percentiles come from :class:`~repro.obs.hist.LogBucketHistogram`'s
integer bucketing, so a report merged from N worker shards serialises
byte-identically to the serial one (the ``--workers`` contract).

Serialisation splits two subtrees:

* ``payload()`` — the deterministic measurement (what tests and CI
  byte-compare);
* ``meta`` — run provenance that legitimately varies between hosts and
  invocations (cpu count, worker count, cache dir, schema version),
  attached by :func:`run_meta` and excluded from determinism checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..obs.hist import LogBucketHistogram, WindowSeries
from .slo import SLOTracker

#: Bumped whenever the ServeReport JSON layout changes shape.
#: v2: admission-control shed counts (``shed``, ``sheds`` window
#: series, SLO ``shed``/``offered_attainment``) and the re-tune log.
#: v3: the re-tune log is gone (a cell never changes plan).
SERVE_SCHEMA_VERSION = 3


def run_meta(
    workers: int = 1,
    cache_dir: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Provenance metadata embedded under the report's ``meta`` key."""
    meta = {
        "schema_version": SERVE_SCHEMA_VERSION,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "cache_dir": cache_dir,
    }
    if extra:
        meta.update(extra)
    return meta


@dataclass
class ServeReport:
    """Aggregated observability of one (or several merged) serving runs."""

    label: str = ""
    workload: str = ""
    model: str = ""
    device: str = ""
    arrival: str = ""
    duration_ms: float = 0.0
    window_ms: float = 1.0
    requests: int = 0
    completed: int = 0
    #: Arrivals refused by the admission policy (requests - completed
    #: for a fully drained adaptive run; 0 for static runs).
    shed: int = 0
    #: Simulated wall-clock until the last request drained (ms).
    elapsed_ms: float = 0.0
    latency: LogBucketHistogram = field(default_factory=LogBucketHistogram)
    stage_wait: dict[str, LogBucketHistogram] = field(default_factory=dict)
    stage_service: dict[str, LogBucketHistogram] = field(default_factory=dict)
    arrivals: WindowSeries = field(default_factory=WindowSeries)
    completions: WindowSeries = field(default_factory=WindowSeries)
    good_completions: WindowSeries = field(default_factory=WindowSeries)
    sheds: WindowSeries = field(default_factory=WindowSeries)
    slo: SLOTracker = field(default_factory=lambda: SLOTracker(slo_ms=0.0))
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Streaming observation (driver callbacks, deterministic order).
    # ------------------------------------------------------------------
    def observe_arrival(self, t_ms: float) -> None:
        self.requests += 1
        self.arrivals.add(t_ms)

    def observe_visit(
        self, stage: str, wait_ms: float, service_ms: float
    ) -> None:
        wait_hist = self.stage_wait.get(stage)
        if wait_hist is None:
            wait_hist = self.stage_wait[stage] = LogBucketHistogram()
            self.stage_service[stage] = LogBucketHistogram()
        wait_hist.add(wait_ms)
        self.stage_service[stage].add(service_ms)

    def observe_complete(self, latency_ms: float, t_ms: float) -> None:
        self.completed += 1
        self.latency.add(latency_ms)
        self.completions.add(t_ms)
        self.slo.observe(latency_ms, t_ms)
        if latency_ms <= self.slo.slo_ms:
            self.good_completions.add(t_ms)

    def observe_shed(self, t_ms: float) -> None:
        """The admission policy refused one arrival at ``t_ms``."""
        self.shed += 1
        self.sheds.add(t_ms)
        self.slo.observe_shed()

    # ------------------------------------------------------------------
    # Derived rates.
    # ------------------------------------------------------------------
    @property
    def throughput_per_ms(self) -> float:
        return self.completions.mean_rate(self.duration_ms)

    @property
    def goodput_per_ms(self) -> float:
        return self.slo.goodput_per_ms(self.duration_ms)

    # ------------------------------------------------------------------
    # Exact merge.
    # ------------------------------------------------------------------
    def merge(self, other: "ServeReport") -> None:
        self.duration_ms += other.duration_ms
        self.requests += other.requests
        self.completed += other.completed
        self.shed += other.shed
        self.sheds.merge(other.sheds)
        if other.elapsed_ms > self.elapsed_ms:
            self.elapsed_ms = other.elapsed_ms
        self.latency.merge(other.latency)
        for stage, hist in other.stage_wait.items():
            mine = self.stage_wait.get(stage)
            if mine is None:
                mine = self.stage_wait[stage] = LogBucketHistogram()
                self.stage_service[stage] = LogBucketHistogram()
            mine.merge(hist)
            self.stage_service[stage].merge(other.stage_service[stage])
        self.arrivals.merge(other.arrivals)
        self.completions.merge(other.completions)
        self.good_completions.merge(other.good_completions)
        # Adopt the other side's budget whenever ours is still the
        # default-constructed 0.0 — even if the other side completed
        # nothing, its budget is real and the merged attainment /
        # goodput must be judged against it.
        if self.slo.completed == 0 and self.slo.slo_ms == 0.0:
            if other.slo.slo_ms != 0.0:
                self.slo.slo_ms = other.slo.slo_ms
        self.slo.merge(other.slo)

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The deterministic measurement subtree (no ``meta``)."""
        return {
            "label": self.label,
            "workload": self.workload,
            "model": self.model,
            "device": self.device,
            "arrival": self.arrival,
            "duration_ms": self.duration_ms,
            "window_ms": self.window_ms,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "elapsed_ms": self.elapsed_ms,
            "throughput_per_ms": self.throughput_per_ms,
            "goodput_per_ms": self.goodput_per_ms,
            "latency": self.latency.to_dict(),
            "stages": {
                stage: {
                    "wait": self.stage_wait[stage].to_dict(),
                    "service": self.stage_service[stage].to_dict(),
                }
                for stage in sorted(self.stage_wait)
            },
            "arrivals": self.arrivals.to_dict(),
            "completions": self.completions.to_dict(),
            "good_completions": self.good_completions.to_dict(),
            "sheds": self.sheds.to_dict(),
            "slo": self.slo.to_dict(),
        }

    def to_dict(self) -> dict:
        return {"meta": dict(self.meta), **self.payload()}

    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        lat = self.latency
        lines = [
            f"serve {self.label or self.workload}: "
            f"{self.completed}/{self.requests} requests in "
            f"{self.duration_ms:g} ms ({self.arrival})",
            f"  latency ms: p50={lat.percentile(50):.3f} "
            f"p99={lat.percentile(99):.3f} p999={lat.percentile(99.9):.3f} "
            f"max={lat.max:.3f}",
            f"  throughput={self.throughput_per_ms:.3f}/ms "
            f"goodput={self.goodput_per_ms:.3f}/ms "
            f"(SLO {self.slo.slo_ms:g} ms, attainment "
            f"{self.slo.attainment * 100:.1f}%, "
            f"{self.slo.violations} violations"
            + (
                f", first at {self.slo.first_violation_ms:.3f} ms)"
                if self.slo.first_violation_ms is not None
                else ")"
            ),
        ]
        if self.shed:
            lines.append(
                f"  admission shed {self.shed} request(s) "
                f"(offered attainment "
                f"{self.slo.offered_attainment * 100:.1f}%)"
            )
        for stage in sorted(self.stage_wait):
            wait = self.stage_wait[stage]
            service = self.stage_service[stage]
            lines.append(
                f"  stage {stage}: visits={wait.count} "
                f"wait p99={wait.percentile(99):.3f} ms "
                f"service p99={service.percentile(99):.3f} ms"
            )
        return lines


def merge_serve_reports(
    reports: Iterable[ServeReport], label: str = "serve"
) -> ServeReport:
    """Fold reports left to right into one.

    The harness returns reports in plan order for any worker count, so
    the fold sums the same floats in the same order and the merged
    report is byte-identical for any ``--workers``.
    """
    items = list(reports)
    merged = ServeReport(label=label)
    if not items:
        return merged
    first = items[0]
    merged.workload = first.workload
    merged.model = first.model
    merged.device = first.device
    merged.arrival = first.arrival
    merged.window_ms = first.window_ms
    merged.arrivals.window_ms = first.window_ms
    merged.completions.window_ms = first.window_ms
    merged.good_completions.window_ms = first.window_ms
    merged.sheds.window_ms = first.window_ms
    merged.slo.slo_ms = first.slo.slo_ms
    for report in items:
        merged.merge(report)
    if any(report.workload != first.workload for report in items):
        merged.workload = "mixed"
    if any(report.model != first.model for report in items):
        merged.model = "mixed"
    if any(report.arrival != first.arrival for report in items):
        merged.arrival = "mixed"
    return merged
