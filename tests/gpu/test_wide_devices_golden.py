"""Frozen schedules on devices with 32 or more SMs.

The golden schedule (:mod:`tests.gpu.test_determinism_golden`) and the
Gantt goldens run on K20c (13 SMs).  This file pins the hardware
scheduler's SM pick on wide devices: K20c overridden to 32 SMs, T4 (40)
and H100 (132), for reyes, face_detection and ldpc at quick size under
VersaPipe and the megakernel.  Each case records the engine's event
count, its final clock and the run's simulated time.

``golden/wide_devices.json`` was recorded while the scheduler still
picked SMs on devices this wide with vectorised capacity masks over a
numpy mirror of the SMs' occupancy, so the digests carry the agreement
of that pick and the per-SM scan forward.

Regenerate (only after an intentional change to the schedule) from the
repo root::

    PYTHONPATH=src python -m tests.gpu.test_wide_devices_golden
"""

import json
from pathlib import Path

import pytest

from repro.core.executor import FunctionalExecutor
from repro.core.models import HybridModel, MegakernelModel
from repro.gpu.device import GPUDevice
from repro.gpu.specs import H100, K20C, T4
from repro.workloads.registry import get_workload

_GOLDEN = Path(__file__).parent / "golden" / "wide_devices.json"

DEVICES = {
    "K20c-32": K20C.with_overrides(num_sms=32),
    "T4": T4,
    "H100": H100,
}
WORKLOADS = ("reyes", "face_detection", "ldpc")
MODELS = ("versapipe", "megakernel")
CASES = [
    f"{device}/{workload}/{model}"
    for device in DEVICES
    for workload in WORKLOADS
    for model in MODELS
]


def fingerprint(case: str) -> dict:
    """Event count, final clock and simulated time of one functional run."""
    device_name, workload, model_name = case.split("/")
    gpu = DEVICES[device_name]
    spec = get_workload(workload)
    params = spec.quick_params()
    pipeline = spec.build_pipeline(params)
    if model_name == "versapipe":
        model = HybridModel(spec.versapipe_config(pipeline, gpu, params))
    else:
        model = MegakernelModel()
    device = GPUDevice(gpu)
    result = model.run(
        pipeline,
        device,
        FunctionalExecutor(pipeline),
        spec.initial_items(params),
    )
    return {
        "events_processed": device.engine.events_processed,
        "final_cycles": device.engine.now,
        "time_ms": result.time_ms,
    }


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert min(gpu.num_sms for gpu in DEVICES.values()) >= 32


@pytest.mark.parametrize("case", CASES)
def test_wide_device_schedule_matches_golden(case, golden):
    assert fingerprint(case) == golden[case]


if __name__ == "__main__":
    record = {case: fingerprint(case) for case in CASES}
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")
