"""Per-SM compute segments and the text Gantt renderer drawn from them."""

from repro.core import OUTPUT, FunctionalExecutor, Pipeline, Stage, TaskCost
from repro.core.models import CoarsePipelineModel, MegakernelModel
from repro.gpu import GPUDevice, K20C
from repro.gpu.block import one_segment
from repro.gpu.kernel import KernelSpec
from repro.gpu.tracing import render_timeline
from repro.obs import Observer
from repro.obs.events import ComputeSegment


class _Producer(Stage):
    name = "producer"
    emits_to = ("consumer",)
    registers_per_thread = 64

    def execute(self, item, ctx):
        ctx.emit("consumer", item * 2)

    def cost(self, item):
        return TaskCost(800.0)


class _Consumer(Stage):
    name = "consumer"
    emits_to = (OUTPUT,)
    registers_per_thread = 48

    def execute(self, item, ctx):
        ctx.emit_output(item + 1)

    def cost(self, item):
        return TaskCost(1200.0)


def toy_pipeline():
    return Pipeline([_Producer(), _Consumer()], name="traced")


def traced_run(model):
    """Run the toy pipeline with an observer; return the result and the
    run's compute segments."""
    pipeline = toy_pipeline()
    device = GPUDevice(K20C)
    observer = Observer().attach(device)
    result = model.run(
        pipeline,
        device,
        FunctionalExecutor(pipeline),
        {"producer": list(range(1, 80))},
    )
    return result, observer.recorder.of_type(ComputeSegment)


def segment(sm_id, kernel, start, end, work=1.0):
    return ComputeSegment(
        t=end, sm_id=sm_id, block_id=0, kernel=kernel, start=start, work=work
    )


def legend(text):
    return [line for line in text.splitlines() if line.startswith("legend:")]


class TestTracer:
    """The SMs' record of their activity: one ``ComputeSegment`` per
    completed compute interval, captured by an attached observer."""

    def test_segments_recorded(self):
        _result, segments = traced_run(MegakernelModel())
        assert segments
        for seg in segments:
            assert seg.end > seg.start
            assert 0 <= seg.sm_id < K20C.num_sms
            assert seg.work > 0

    def test_busy_cycles_match_span(self):
        _result, segments = traced_run(MegakernelModel())
        start = min(seg.start for seg in segments)
        end = max(seg.end for seg in segments)
        busy = sum(seg.duration for seg in segments)
        # Total busy time across SMs can exceed the span (parallelism) but
        # every segment lies within it.
        assert busy > 0
        for seg in segments:
            assert start <= seg.start <= seg.end <= end

    def test_zero_length_segments_dropped(self):
        """A compute interval too short to move a late clock (``now +
        horizon == now`` in floating point) completes, but its SM emits
        no segment for it."""

        def program(block):
            # A 1e10-cycle gap, a 1e-8-cycle segment, then a real one.
            def tiny():
                block._resume = lambda: one_segment(block, 1000.0, 256, 0.0)
                block.begin_compute(1e-8, 256, 0.0)

            block.sm.engine.schedule_call(1e10, tiny)

        device = GPUDevice(K20C)
        observer = Observer().attach(device)
        kernel = KernelSpec(
            name="k",
            registers_per_thread=32,
            threads_per_block=256,
            code_bytes=2048,
        )
        device.launch(kernel, program, num_blocks=1, charge_host=False)
        device.synchronize(charge_host=False)
        segments = observer.recorder.of_type(ComputeSegment)
        assert len(segments) == 1
        assert segments[0].duration > 0

    def test_kernel_names_deduplicated_in_order(self):
        text = render_timeline(
            [segment(0, "b", 0, 1), segment(1, "a", 0, 1),
             segment(0, "b", 1, 2)],
            num_sms=2,
            width=4,
        )
        assert legend(text) == ["legend: #=b  *=a  .=idle"]


class TestRenderTimeline:
    def test_empty_trace(self):
        assert "no activity" in render_timeline([], 4)

    def test_one_row_per_sm(self):
        _result, segments = traced_run(MegakernelModel())
        text = render_timeline(segments, K20C.num_sms, width=40)
        rows = [l for l in text.splitlines() if l.startswith("SM")]
        assert len(rows) == K20C.num_sms
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_legend_lists_kernels(self):
        _result, segments = traced_run(MegakernelModel())
        text = render_timeline(segments, K20C.num_sms)
        assert "legend:" in text
        for seg in segments:
            assert seg.kernel in text

    def test_coarse_pipeline_partitions_sms(self):
        """Under coarse binding, each SM's row shows exactly one kernel."""
        _result, segments = traced_run(CoarsePipelineModel())
        per_sm_kernels = {}
        for seg in segments:
            per_sm_kernels.setdefault(seg.sm_id, set()).add(seg.kernel)
        for sm_id, kernels in per_sm_kernels.items():
            assert len(kernels) == 1, (sm_id, kernels)

    def test_segment_at_span_end_does_not_overflow(self):
        """Regression: a zero-width segment lying exactly at the span end
        indexed one past the last column (first == width)."""
        text = render_timeline(
            [segment(0, "k", 0.0, 100.0), segment(1, "k", 100.0, 100.0, 0.0)],
            num_sms=2,
            width=10,
        )
        assert "SM00" in text and "SM01" in text

    def test_segment_before_span_start_clamped(self):
        text = render_timeline(
            [segment(0, "k", -50.0, 10.0), segment(0, "k", 0.0, 100.0)],
            num_sms=1,
            width=10,
        )
        assert "SM00" in text

    def test_clock_footer(self):
        _result, segments = traced_run(MegakernelModel())
        text = render_timeline(
            segments, K20C.num_sms, clock_ghz=K20C.clock_ghz
        )
        assert "us" in text
