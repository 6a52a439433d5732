"""Frozen results of the host-driven execution models.

The persistent models are pinned by the golden schedule and the Gantt
goldens (``tests/gpu``); this file pins the models whose blocks each run
one batch and exit: run-to-completion, the kernel-by-kernel variants the
workloads' baselines use, and dynamic parallelism.  Every cell runs one
of the six workloads at quick size on K20c or GTX1080 through
:func:`repro.harness.runner.run_cell` and records its simulated time
(as ``repr``), cycles, launches, blocks, output count, per-stage task
counts and busy cycles, and the model's configuration text.  A model
that cannot express a workload records the error's text instead.

Regenerate (only after an intentional change to a host-driven model)
from the repo root::

    PYTHONPATH=src python -m tests.core.test_host_models_golden
"""

import json
from pathlib import Path

import pytest

from repro.core import ModelNotApplicableError
from repro.core.models import DynamicParallelismModel, KBKModel, RTCModel
from repro.gpu.specs import GTX1080, K20C
from repro.harness.runner import run_cell
from repro.workloads.registry import all_workloads, get_workload

_GOLDEN = Path(__file__).parent / "golden" / "host_models.json"

DEVICES = {"K20c": K20C, "GTX1080": GTX1080}
MODELS = {
    "rtc": lambda spec, params: RTCModel(),
    "kbk": lambda spec, params: KBKModel(),
    "kbk-seq": lambda spec, params: KBKModel(sequential=True),
    "kbk-seq-4lanes": lambda spec, params: KBKModel(sequential=True, lanes=4),
    "kbk-host4096": lambda spec, params: KBKModel(host_bytes_per_wave=4096),
    "dp": lambda spec, params: DynamicParallelismModel(),
    "baseline": lambda spec, params: spec.baseline_model(params),
}
CASES = [
    f"{device}/{workload}/{model}"
    for device in DEVICES
    for workload in sorted(all_workloads())
    for model in MODELS
]


def fingerprint(case: str) -> dict:
    """The simulated outcome of one quick-size cell."""
    device_name, workload, model_name = case.split("/")
    spec = get_workload(workload)
    params = spec.quick_params()
    model = MODELS[model_name](spec, params)
    try:
        cell = run_cell(spec, model, DEVICES[device_name], params)
    except ModelNotApplicableError as err:
        return {"not_applicable": str(err)}
    result = cell.result
    metrics = result.device_metrics
    return {
        "time_ms": repr(result.time_ms),
        "cycles": result.cycles,
        "kernel_launches": metrics.kernel_launches,
        "blocks_launched": metrics.blocks_launched,
        "outputs": len(result.outputs),
        "stage_tasks": {
            name: stats.tasks for name, stats in result.stage_stats.items()
        },
        "stage_busy_cycles": {
            name: stats.busy_cycles
            for name, stats in result.stage_stats.items()
        },
        "config": result.config_description,
    }


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert any("not_applicable" in entry for entry in golden.values())


@pytest.mark.parametrize("case", CASES)
def test_host_model_matches_golden(case, golden):
    assert fingerprint(case) == golden[case]


if __name__ == "__main__":
    record = {case: fingerprint(case) for case in CASES}
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")
