"""Beyond-paper study: does the hybrid plan's edge survive device scaling?

The paper evaluates two devices (13 and 20 SMs).  The simulator lets us
sweep SM counts and check the trend the paper's conclusion implies: the
hybrid model's edge over the megakernel comes from occupancy and binding
effects that persist — and for register-heavy pipelines grow — as SMs are
added, while the KBK baseline's launch overhead becomes relatively more
expensive on bigger (faster-draining) devices.

The hybrid column is Reyes' paper-described plan as it is (``described``),
not the VersaPipe column: that column takes the faster of this plan and
the megakernel, so it could never lose to the megakernel column it is
compared with here.

The recording does not depend on the device, so the sweep records Reyes
once and every cell replays that recording, outputs checked.
"""

from repro.core.models import HybridModel, KBKModel, MegakernelModel
from repro.gpu import K20C
from repro.harness.runner import run_cell
from repro.harness.tables import format_table
from repro.harness.tracecache import TraceCache
from repro.workloads import reyes
from repro.workloads.registry import get_workload

SM_COUNTS = (4, 8, 13, 20, 32)


def sweep():
    spec = get_workload("reyes")
    params = reyes.ReyesParams()
    pipeline = spec.build_pipeline(params)
    cache = TraceCache()
    rows = {}
    for num_sms in SM_COUNTS:
        gpu = K20C.with_overrides(num_sms=num_sms)
        models = {
            "kbk": KBKModel(host_bytes_per_wave=reyes.KBK_HOST_BYTES_PER_WAVE),
            "megakernel": MegakernelModel(),
            "described": HybridModel(
                spec.versapipe_config(pipeline, gpu, params)
            ),
        }
        rows[num_sms] = {
            label: run_cell(spec, model, gpu, params, cache=cache).time_ms
            for label, model in models.items()
        }
    return rows


def test_device_scaling(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["SMs", "KBK ms", "Megakernel ms", "Described ms", "MK/described"]
    table = []
    for num_sms, cells in rows.items():
        table.append(
            [
                num_sms,
                f"{cells['kbk']:.2f}",
                f"{cells['megakernel']:.2f}",
                f"{cells['described']:.2f}",
                f"{cells['megakernel'] / cells['described']:.2f}x",
            ]
        )
    print("\n=== Reyes vs device size (K20c-like SMs) ===")
    print(format_table(headers, table))

    for num_sms, cells in rows.items():
        # The described plan never loses to the megakernel at any size.
        assert cells["described"] <= cells["megakernel"] * 1.05, num_sms
    # Every model gets faster with more SMs (the workload scales).
    for label in ("kbk", "megakernel", "described"):
        times = [rows[n][label] for n in SM_COUNTS]
        assert times[-1] < times[0], label
