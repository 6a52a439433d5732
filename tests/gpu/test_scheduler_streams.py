"""Hardware scheduler and stream semantics in depth."""

import pytest

from repro.gpu.block import one_segment
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import KernelSpec
from repro.gpu.specs import K20C


def kspec(regs=32, threads=256, name="k"):
    return KernelSpec(
        name=name, registers_per_thread=regs, threads_per_block=threads
    )


def compute_program(cycles, on_start=None):
    """Each block runs one whole-block compute segment of ``cycles``."""

    def program(block):
        if on_start is not None:
            on_start(block)
        one_segment(block, cycles, block.kernel.threads_per_block, 0.0)

    return program


class TestDispatchOrder:
    def test_blocks_of_one_launch_dispatch_in_order(self):
        device = GPUDevice(K20C.with_overrides(num_sms=1))
        starts = []
        program = compute_program(
            500.0, on_start=lambda block: starts.append(block.tag)
        )
        # 255-reg blocks: strictly one at a time on the single SM.
        device.launch(kspec(regs=255), program, num_blocks=5, charge_host=False)
        device.synchronize(charge_host=False)
        assert starts == [0, 1, 2, 3, 4]

    def test_head_of_line_block_does_not_starve_other_launches(self):
        # Launch A's head block only fits SM 0 (which is saturated);
        # launch B must still dispatch to other SMs.
        device = GPUDevice(K20C.with_overrides(num_sms=2))
        seen = []

        def program(name):
            return compute_program(
                2000.0, on_start=lambda block: seen.append((name, block.sm.sm_id))
            )

        # Saturate SM 0 with a long 255-reg block.
        device.launch(
            kspec(regs=255, name="hog"),
            program("hog"),
            1,
            sm_filter=frozenset({0}),
            charge_host=False,
        )
        device.engine.run(until=lambda: bool(seen))
        # A filtered launch stuck on SM 0...
        stream_a = device.create_stream()
        device.launch(
            kspec(regs=255, name="stuck"),
            program("stuck"),
            1,
            stream=stream_a,
            sm_filter=frozenset({0}),
            charge_host=False,
        )
        # ...must not block an unfiltered launch in another stream.
        stream_b = device.create_stream()
        device.launch(
            kspec(regs=32, name="free"),
            program("free"),
            1,
            stream=stream_b,
            charge_host=False,
        )
        device.synchronize(charge_host=False)
        names = [n for n, _ in seen]
        assert names.index("free") < names.index("stuck")

    def test_least_loaded_sm_preferred(self):
        device = GPUDevice(K20C.with_overrides(num_sms=3))
        placements = []
        program = compute_program(
            5000.0, on_start=lambda block: placements.append(block.sm.sm_id)
        )
        device.launch(kspec(regs=16), program, num_blocks=6, charge_host=False)
        device.synchronize(charge_host=False)
        # Round-robin-ish: each SM got two blocks.
        assert sorted(placements) == [0, 0, 1, 1, 2, 2]


class TestStreamSemantics:
    def test_three_stream_pipeline_overlaps(self):
        spec = K20C.with_overrides(num_sms=2)

        def run(n_streams):
            device = GPUDevice(spec)
            streams = [device.create_stream() for _ in range(n_streams)]
            for i in range(6):
                device.launch(
                    kspec(regs=16, name=f"k{i}"),
                    compute_program(3000.0),
                    1,
                    stream=streams[i % n_streams],
                    charge_host=False,
                )
            device.synchronize(charge_host=False)
            return device.engine.now

        assert run(3) < run(1)

    def test_empty_launch_completes_stream(self):
        device = GPUDevice(K20C)
        done = []
        stream = device.create_stream()
        device.launch(
            kspec(), compute_program(1.0), 0, stream=stream,
            on_complete=lambda l: done.append("empty"), charge_host=False,
        )
        device.launch(
            kspec(), compute_program(100.0), 1, stream=stream,
            on_complete=lambda l: done.append("real"), charge_host=False,
        )
        device.synchronize(charge_host=False)
        assert done == ["empty", "real"]

    def test_completion_callbacks_fire_once(self):
        device = GPUDevice(K20C)
        calls = []
        launch = device.launch(
            kspec(), compute_program(10.0), 2,
            on_complete=lambda l: calls.append(l.launch_id),
            charge_host=False,
        )
        device.synchronize(charge_host=False)
        assert calls == [launch.launch_id]
        # Registering after completion fires immediately, exactly once.
        launch.add_completion_callback(lambda l: calls.append("late"))
        assert calls == [launch.launch_id, "late"]


class TestLaunchValidation:
    def test_negative_blocks_rejected(self):
        device = GPUDevice(K20C)
        with pytest.raises(ValueError):
            device.launch(kspec(), compute_program(1.0), -1)

    def test_per_block_sm_length_mismatch_rejected(self):
        device = GPUDevice(K20C)
        with pytest.raises(ValueError):
            device.launch(
                kspec(),
                compute_program(1.0),
                3,
                per_block_sm=[frozenset({0})],
            )

    def test_per_block_sm_placement(self):
        device = GPUDevice(K20C)
        placements = {}
        program = compute_program(
            10.0,
            on_start=lambda block: placements.__setitem__(
                block.tag, block.sm.sm_id
            ),
        )
        device.launch(
            kspec(),
            program,
            3,
            per_block_sm=[
                frozenset({4}),
                frozenset({7}),
                frozenset({11}),
            ],
            charge_host=False,
        )
        device.synchronize(charge_host=False)
        assert placements == {0: 4, 1: 7, 2: 11}


class TestHostTimeline:
    def test_launches_serialize_on_host(self):
        device = GPUDevice(K20C)
        device.launch(kspec(), compute_program(1.0), 1)
        t1 = device.host_time
        device.launch(kspec(), compute_program(1.0), 1)
        assert device.host_time == pytest.approx(
            t1 + K20C.us_to_cycles(K20C.kernel_launch_us)
        )

    def test_sync_charges_host_overhead(self):
        device = GPUDevice(K20C)
        device.launch(kspec(), compute_program(100.0), 1)
        device.synchronize(charge_host=True)
        assert device.host_time >= device.engine.now
