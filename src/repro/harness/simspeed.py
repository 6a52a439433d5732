"""Canonical simulator cases.

Three fixed runs that pin the simulator's event schedule:

* ``synthetic_deep`` — a 10-stage uniform synthetic pipeline under the
  all-stage megakernel model: every task crosses a work queue and every
  batch exercises the persistent-block fetch/compute/push loop, making
  it the purest stress test of per-scheduling-decision overhead;
* ``face_detection`` — the paper's recursion-heavy dynamic workload
  under its described hybrid plan;
* ``reyes`` — the paper's flagship split-bound pipeline under its
  described hybrid plan.

The two workload cases run the paper-described plan as it is, not the
harness's VersaPipe column (:func:`~repro.harness.runner.run_versapipe`,
the faster of that plan and the megakernel), so each case pins one
plan's schedule.

Two scales exist per case; only ``synthetic_deep`` differs between
them (256 against 64 items).  ``test`` scale is the golden schedule of
``tests/gpu/test_determinism_golden.py``.  ``bench`` scale is the
deep-pipeline stress case that ``scripts/profile_run.py synthetic``
profiles; the golden test pins its event count, outputs and simulated
time exactly.  Host time is measured by perfbench, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.executor import FunctionalExecutor
from ..core.models import HybridModel, MegakernelModel
from ..gpu.device import GPUDevice
from ..gpu.specs import K20C
from ..workloads import synthetic
from ..workloads.registry import get_workload

#: The three canonical cases.
CANONICAL_CASES = ("synthetic_deep", "face_detection", "reyes")

_SYNTHETIC_ITEMS = {"bench": 256, "test": 64}


@dataclass
class SimRun:
    """The schedule fingerprint plus metrics of one simulated run."""

    name: str
    events_processed: int
    final_cycles: float
    sim_time_ms: float
    #: stage name -> executed task count (queued + inline).
    stage_tasks: dict[str, int]
    #: stage name -> accumulated busy cycles.
    stage_busy_cycles: dict[str, float]
    num_outputs: int

    def fingerprint(self) -> dict:
        """JSON-able schedule identity: two runs produced the identical
        event schedule iff their fingerprints are equal (event count,
        final clock, simulated time, and per-stage work all match)."""
        return {
            "events_processed": self.events_processed,
            "final_cycles": self.final_cycles,
            "sim_time_ms": self.sim_time_ms,
            "stage_tasks": dict(sorted(self.stage_tasks.items())),
            "stage_busy_cycles": dict(
                sorted(self.stage_busy_cycles.items())
            ),
            "num_outputs": self.num_outputs,
        }


def build_case(name: str, scale: str = "bench"):
    """Return ``(pipeline, model, initial_items)`` for one case."""
    if name == "synthetic_deep":
        params = synthetic.SyntheticParams.uniform(
            num_stages=10,
            registers=64,
            mean_cycles=600.0,
            num_items=_SYNTHETIC_ITEMS[scale],
        )
        pipeline = synthetic.build_pipeline(params)
        return pipeline, MegakernelModel(), synthetic.initial_items(params)
    spec = get_workload(name)
    params = spec.quick_params()
    pipeline = spec.build_pipeline(params)
    model = HybridModel(spec.versapipe_config(pipeline, K20C, params))
    return pipeline, model, spec.initial_items(params)


def write_golden(path: str | None = None) -> str:
    """Regenerate the determinism golden snapshot (test scale).

    Only for *intentional* model changes: the golden pins the event
    schedule, so regenerating it declares the new schedule correct.
    Defaults to ``tests/gpu/golden/simschedule.json`` in a dev checkout.
    """
    import json
    from pathlib import Path

    if path is None:
        repo_root = Path(__file__).resolve().parents[3]
        path = str(repo_root / "tests" / "gpu" / "golden" / "simschedule.json")
    golden = {
        name: run_case(name, scale="test").fingerprint()
        for name in CANONICAL_CASES
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_case(name: str, scale: str = "bench") -> SimRun:
    """Execute one canonical case on a fresh device and fingerprint it."""
    if name not in CANONICAL_CASES:
        raise ValueError(
            f"unknown simspeed case {name!r}; choose from {CANONICAL_CASES}"
        )
    pipeline, model, initial = build_case(name, scale)
    device = GPUDevice(K20C)
    executor = FunctionalExecutor(pipeline)
    result = model.run(pipeline, device, executor, initial)
    return SimRun(
        name=name,
        events_processed=device.engine.events_processed,
        final_cycles=device.engine.now,
        sim_time_ms=result.time_ms,
        stage_tasks={
            stage: stats.tasks for stage, stats in result.stage_stats.items()
        },
        stage_busy_cycles={
            stage: stats.busy_cycles
            for stage, stats in result.stage_stats.items()
        },
        num_outputs=len(result.outputs),
    )
