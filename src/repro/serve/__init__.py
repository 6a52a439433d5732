"""Open-loop serving mode: timed request injection + tail-latency SLOs.

Batch mode answers "how fast does the pipeline chew through a fixed pile
of work"; serving mode answers "what latency distribution do clients see
when requests arrive on their own clock".  This package provides the
arrival processes (:mod:`~repro.serve.arrivals`), the driver that
injects them into a resident hybrid pipeline
(:mod:`~repro.serve.driver`), the streaming report with deterministic
tail percentiles and SLO accounting (:mod:`~repro.serve.report`,
:mod:`~repro.serve.slo`), the sharded multi-workload harness
(:mod:`~repro.serve.harness`), and the load-adaptive control plane —
admission control and dynamic batching (:mod:`~repro.serve.controller`).
The CLI front end is ``repro serve``; see ``docs/serving.md``.
"""

from __future__ import annotations

from .arrivals import (
    ArrivalProcess,
    ArrivalSpecError,
    BurstArrivals,
    PoissonArrivals,
    TraceArrivals,
    load_arrival_trace,
    parse_arrival_spec,
)
from .controller import (
    ADMISSION_KINDS,
    AdmissionSpecError,
    BatchFormer,
    LatencyPredictor,
    ServeController,
    parse_admission_spec,
)
from .driver import (
    SERVE_MODELS,
    RequestTaggingExecutor,
    ServeConfig,
    build_serve_plan,
    serve_workload,
)
from .harness import plan_serve, run_serve_cells
from .report import (
    SERVE_SCHEMA_VERSION,
    ServeReport,
    merge_serve_reports,
    run_meta,
)
from .slo import MIXED_SLO_MS, SLOTracker

__all__ = [
    "ADMISSION_KINDS",
    "MIXED_SLO_MS",
    "SERVE_MODELS",
    "SERVE_SCHEMA_VERSION",
    "AdmissionSpecError",
    "ArrivalProcess",
    "ArrivalSpecError",
    "BatchFormer",
    "BurstArrivals",
    "LatencyPredictor",
    "PoissonArrivals",
    "RequestTaggingExecutor",
    "SLOTracker",
    "ServeConfig",
    "ServeController",
    "ServeReport",
    "TraceArrivals",
    "build_serve_plan",
    "load_arrival_trace",
    "merge_serve_reports",
    "parse_admission_spec",
    "parse_arrival_spec",
    "plan_serve",
    "run_meta",
    "run_serve_cells",
    "serve_workload",
]
