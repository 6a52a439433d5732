"""Visualise how execution models place work on the SMs:

    python examples/pipeline_timeline.py

Runs Reyes under the megakernel and under VersaPipe's hybrid plan with
an observer attached and prints a text Gantt chart of each run's
compute segments — making the
coarse/fine SM binding visible: under the hybrid plan the shade group's
SMs run only the shade kernel, while the megakernel mixes everything
everywhere.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import K20C, FunctionalExecutor, GPUDevice
from repro.core.models import HybridModel, MegakernelModel
from repro.gpu.tracing import render_timeline
from repro.obs import Observer
from repro.obs.events import ComputeSegment
from repro.workloads import reyes


def run_with_trace(model, params):
    pipeline = reyes.build_pipeline(params)
    device = GPUDevice(K20C)
    observer = Observer().attach(device)
    result = model.run(
        pipeline,
        device,
        FunctionalExecutor(pipeline),
        reyes.initial_items(params),
    )
    return result, observer.recorder.of_type(ComputeSegment)


def main():
    params = reyes.ReyesParams(num_base_patches=16, split_threshold=64.0)

    result, segments = run_with_trace(MegakernelModel(), params)
    print(f"=== Megakernel ({result.time_ms:.3f} ms) ===")
    print(render_timeline(segments, K20C.num_sms, clock_ghz=K20C.clock_ghz))

    pipeline = reyes.build_pipeline(params)
    config = reyes.versapipe_config(pipeline, K20C, params)
    result, segments = run_with_trace(HybridModel(config), params)
    print(f"\n=== VersaPipe hybrid ({result.time_ms:.3f} ms) ===")
    print(f"plan: {config.describe()}")
    print(render_timeline(segments, K20C.num_sms, clock_ghz=K20C.clock_ghz))

    busy = {}
    for segment in segments:
        busy[segment.kernel] = busy.get(segment.kernel, 0.0) + segment.duration
    print("\nbusy cycles by kernel:")
    for kernel, cycles in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"  {kernel:24s} {cycles/1e6:8.2f} Mcycles")


if __name__ == "__main__":
    main()
