"""Evaluation harness: runs (workload x model x device) cells — serially
or fanned across a worker-process pool — renders the paper's tables and
figures as text, and compares measured shapes against the paper's
reported numbers."""

from .pool import (
    CellTask,
    SuiteResult,
    plan_suite,
    run_cells,
    run_suite,
    suite_bench_payload,
)
from .runner import (
    COLUMNS,
    MODEL_NAMES,
    ExperimentCell,
    TunedWorkload,
    aggregate_reports,
    execute_model,
    run_cell,
    run_column,
    run_versapipe,
    run_workload_models,
    tune_workload,
)
from .tables import format_table, ratio, render_figure11, render_table2
from .tracecache import (
    DEFAULT_TRACE_CACHE,
    DEFAULT_TRACE_CACHE_DIR,
    TraceCache,
    workload_fingerprint,
)

__all__ = [
    "COLUMNS",
    "CellTask",
    "DEFAULT_TRACE_CACHE",
    "DEFAULT_TRACE_CACHE_DIR",
    "ExperimentCell",
    "MODEL_NAMES",
    "SuiteResult",
    "TraceCache",
    "TunedWorkload",
    "aggregate_reports",
    "execute_model",
    "format_table",
    "plan_suite",
    "ratio",
    "render_figure11",
    "render_table2",
    "run_cell",
    "run_cells",
    "run_column",
    "run_suite",
    "run_versapipe",
    "run_workload_models",
    "suite_bench_payload",
    "tune_workload",
    "workload_fingerprint",
]
