"""Figure 13: Image Pyramid time vs. number of input images.

Four series, as in the paper: the sequential KBK baseline, "KBK with
Stream" (4 concurrent lanes), Megakernel, and VersaPipe, swept over
1..32 HD images.  The reproduced shape: KBK grows steeply and linearly,
streams help by a bounded factor, and the persistent models stay flat and
far below both — with the gap widening as images are added ("when the
input size is small ... the performance difference is less prominent").

VersaPipe is the Table 2 column (:func:`~repro.harness.runner
.run_versapipe`): the faster of the paper-described plan and the
Megakernel cell.  Each image count records its inputs once, every cell
replays that recording, and every cell's outputs are checked.
"""

from repro.core.models import KBKModel, MegakernelModel
from repro.gpu import K20C
from repro.harness.runner import run_cell, run_versapipe
from repro.harness.tables import format_table
from repro.harness.tracecache import TraceCache
from repro.workloads import pyramid
from repro.workloads.registry import get_workload

IMAGE_COUNTS = (1, 2, 4, 8, 16, 32)


def sweep():
    spec = get_workload("pyramid")
    series = {"KBK": [], "KBK+Stream": [], "Megakernel": [], "VersaPipe": []}
    for count in IMAGE_COUNTS:
        params = pyramid.PyramidParams(num_images=count)
        cache = TraceCache()

        def cell(model):
            return run_cell(spec, model, K20C, params, cache=cache)

        series["KBK"].append(cell(KBKModel(sequential=True)).time_ms)
        series["KBK+Stream"].append(
            cell(KBKModel(sequential=True, lanes=4)).time_ms
        )
        megakernel = cell(MegakernelModel())
        series["Megakernel"].append(megakernel.time_ms)
        series["VersaPipe"].append(
            run_versapipe(
                spec, K20C, params, cache=cache, megakernel=megakernel
            ).time_ms
        )
    return series


def test_fig13_pyramid_scaling(benchmark):
    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["images"] + [str(c) for c in IMAGE_COUNTS]
    rows = [
        [name] + [f"{t:.3f}" for t in times] for name, times in series.items()
    ]
    print("\n=== Figure 13: Image Pyramid time (ms) vs input images ===")
    print(format_table(headers, rows))

    kbk, stream = series["KBK"], series["KBK+Stream"]
    mega, versa = series["Megakernel"], series["VersaPipe"]
    for index, count in enumerate(IMAGE_COUNTS):
        # Ordering at every point: persistent models beat both KBK forms.
        assert versa[index] < kbk[index]
        assert mega[index] < kbk[index]
        if count >= 4:
            # Streams help KBK but don't catch the persistent models.
            assert stream[index] < kbk[index]
            assert versa[index] < stream[index]
    # KBK grows roughly linearly with image count.
    growth = kbk[-1] / kbk[0]
    assert growth > 16, f"KBK should scale ~linearly, grew only {growth:.1f}x"
    # The VersaPipe advantage widens with input size.
    assert kbk[-1] / versa[-1] > kbk[0] / versa[0]
