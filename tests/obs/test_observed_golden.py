"""Frozen observed runs: the report, the queue tally and the time.

The schedule goldens (``tests/gpu``) pin unobserved runs and the
timeline goldens pin only compute segments, so this file pins what an
attached observer sees.  Every cell runs one of the six workloads at
quick size with ``observe=True`` on K20c or GTX1080, under each of the
``baseline``, ``megakernel``, ``coarse``, ``fine`` and ``versapipe``
columns of :func:`repro.harness.runner.run_column` (a cell the column
cannot place is skipped) plus a megakernel on distributed queues.  Each
entry records a sha256 of the sorted-key JSON of
``RunReport.to_dict()``, a sha256 of ``RunResult.queue_stats`` and
``repr(time_ms)``.

The report's queue summaries (from the event stream) and the run's
queue statistics (from the queue set) are two views of one
measurement, so the file also checks that they agree, and that
observing a run does not change its queue statistics or its time.

Regenerate (only after an intentional change to what a run reports)
from the repo root::

    PYTHONPATH=src python -m tests.obs.test_observed_golden
"""

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import ConfigurationError
from repro.core.models import MegakernelModel
from repro.gpu.specs import GTX1080, K20C
from repro.harness.runner import run_cell, run_column
from repro.harness.tracecache import TraceCache
from repro.workloads.registry import all_workloads, get_workload

_GOLDEN = Path(__file__).parent / "golden" / "observed_reports.json"

DEVICES = {"K20c": K20C, "GTX1080": GTX1080}
COLUMNS = ("baseline", "megakernel", "coarse", "fine", "versapipe")
#: The megakernel on per-SM queue shards, which no column runs.
DISTRIBUTED = "megakernel-distributed"
CASES = [
    f"{device}/{workload}/{column}"
    for device in DEVICES
    for workload in sorted(all_workloads())
    for column in COLUMNS + (DISTRIBUTED,)
]

#: One recording per workload, shared by every cell of this module.
_CACHE = TraceCache()


@lru_cache(maxsize=None)
def run_case(case: str, observe: bool = True):
    """The cell of ``case``, or ``None`` when its column cannot place it."""
    device_name, workload, column = case.split("/")
    spec = get_workload(workload)
    params = spec.quick_params()
    gpu = DEVICES[device_name]
    if column == DISTRIBUTED:
        return run_cell(
            spec,
            MegakernelModel(queue_mode="distributed"),
            gpu,
            params,
            observe=observe,
            cache=_CACHE,
        )
    try:
        return run_column(
            spec, column, gpu, params, observe=observe, cache=_CACHE
        )
    except ConfigurationError:
        return None


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def queue_stats(cell) -> dict:
    return {
        stage: dataclasses.asdict(stats)
        for stage, stats in cell.result.queue_stats.items()
    }


def fingerprint(case: str) -> dict:
    cell = run_case(case)
    return {
        "report": _sha256(cell.result.report.to_dict()),
        "queue_stats": _sha256(queue_stats(cell)),
        "time_ms": repr(cell.time_ms),
    }


def placed_cases() -> list[str]:
    return [case for case in CASES if run_case(case) is not None]


@pytest.fixture(scope="module", autouse=True)
def _release_cells():
    """Drop the memoized cells and traces once this module's tests are
    done."""
    yield
    run_case.cache_clear()
    _CACHE.clear()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_placed_case(golden):
    assert sorted(golden) == sorted(placed_cases())
    assert len(golden) == 68


@pytest.mark.parametrize("case", CASES)
def test_observed_run_matches_golden(case, golden):
    if run_case(case) is None:
        assert case not in golden
        return
    assert fingerprint(case) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_report_and_queue_stats_agree(case):
    cell = run_case(case)
    if cell is None:
        return
    depth = cell.result.report.queue_depth
    for stage, stats in cell.result.queue_stats.items():
        summary = depth.get(stage)
        if summary is None:
            assert stats.enqueued == stats.dequeued == 0
            assert stats.peak_length == 0
            continue
        assert summary.pushes == stats.enqueued
        assert summary.items_popped == stats.dequeued
        assert summary.peak == stats.peak_length


@pytest.mark.parametrize("case", CASES)
def test_observing_does_not_move_the_run(case):
    observed = run_case(case)
    if observed is None:
        return
    unobserved = run_case(case, observe=False)
    assert queue_stats(unobserved) == queue_stats(observed)
    assert unobserved.time_ms == observed.time_ms


if __name__ == "__main__":
    record = {case: fingerprint(case) for case in placed_cases()}
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")
