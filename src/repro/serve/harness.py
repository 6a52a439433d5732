"""Sharded serving harness: fan serving cells across worker processes.

A serving *cell* is one :class:`~repro.serve.driver.ServeConfig` —
typically one workload under one arrival process.  Cells are independent
(each builds its own device, pipeline and arrival schedule), so they
shard across processes exactly like the evaluation suite's cells
(:mod:`repro.harness.pool`): deterministic stride shards, sequential
execution inside each worker, stride merge back into plan order.  The
workers come from the process-wide persistent pool
(:mod:`repro.core.tuner.pool`), so a serve run issued after a bench or
tune in the same process reuses their already-forked workers.

Determinism contract (pinned by ``tests/serve/test_serve_harness.py``):
``run_serve_cells`` returns reports in plan order whose
:meth:`~repro.serve.report.ServeReport.payload` dicts are byte-identical
for any ``workers`` count, and :func:`~repro.serve.report
.merge_serve_reports` folds them left to right in that order — so the
merged report is byte-identical too.  Workers run without an observer
(event capture is a per-process side channel); ``repro serve
--trace-out`` therefore forces the traced cell to run serially
in-process.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from ..core.errors import ConfigurationError
from ..core.tuner.pool import default_workers, map_shards, stride_shards
from .driver import ServeConfig, serve_workload
from .report import ServeReport


def _budget_for(
    name: str, slo_ms: Union[float, Mapping[str, float]]
) -> float:
    """Resolve one workload's latency budget from a scalar or mapping."""
    if isinstance(slo_ms, Mapping):
        try:
            return slo_ms[name]
        except KeyError:
            raise ConfigurationError(
                f"no SLO budget for workload {name!r} (have "
                f"{sorted(slo_ms)})"
            ) from None
    return slo_ms


def plan_serve(
    workloads: Sequence[str],
    arrival_spec: str,
    duration_ms: float,
    slo_ms: Union[float, Mapping[str, float]],
    model: str = "versapipe",
    device: str = "k20c",
    seed: int = 0,
    window_ms: float = 1.0,
    full: bool = False,
    admission: str = "none",
    max_batch: Optional[int] = None,
) -> list[ServeConfig]:
    """The canonical serving plan: one cell per workload, in given order.

    ``slo_ms`` is either one budget shared by every cell or a mapping
    of per-workload budgets (workloads differ by orders of magnitude in
    service time, so one shared number mis-sizes most of them); a
    mapping missing a planned workload raises
    :class:`~repro.core.errors.ConfigurationError`.  The adaptive knobs
    (``admission``, ``max_batch``) apply to every cell and default to
    admitting every request at static pop capacities.
    """
    return [
        ServeConfig(
            workload=name,
            arrival_spec=arrival_spec,
            duration_ms=duration_ms,
            slo_ms=_budget_for(name, slo_ms),
            model=model,
            device=device,
            seed=seed,
            window_ms=window_ms,
            full=full,
            admission=admission,
            max_batch=max_batch,
        )
        for name in workloads
    ]


def _run_serve_shard(_payload: None, shard: list[ServeConfig]) -> list[ServeReport]:
    return [serve_workload(config) for config in shard]


def run_serve_cells(
    configs: Sequence[ServeConfig],
    workers: Optional[int] = None,
) -> list[ServeReport]:
    """Run every serving cell, fanned across ``workers`` processes.

    Returns reports in plan order; any worker count produces
    byte-identical report payloads because each cell simulates on its
    own private device with its own seeded arrival schedule.
    """
    configs = list(configs)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = stride_shards(configs, workers)
    shard_results = map_shards(_run_serve_shard, None, shards, workers)
    count = len(shards)
    merged: list[ServeReport] = [None] * len(configs)  # type: ignore[list-item]
    for offset, reports in enumerate(shard_results):
        merged[offset::count] = reports
    return merged
