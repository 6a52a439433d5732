"""Tests of the SM processor-sharing model, scheduler, streams and device."""

import pytest

from repro.gpu.block import one_segment
from repro.gpu.device import GPUDevice, SimulationDeadlock
from repro.gpu.kernel import KernelSpec
from repro.gpu.specs import K20C


def kspec(regs=32, threads=256, name="k", code_bytes=2048):
    return KernelSpec(
        name=name,
        registers_per_thread=regs,
        threads_per_block=threads,
        code_bytes=code_bytes,
    )


def compute_program(cycles, threads=None, min_cycles=0.0, on_start=None):
    """Each block runs one compute segment of ``cycles`` per thread on
    ``threads`` threads (the whole block by default)."""

    def program(block):
        if on_start is not None:
            on_start(block)
        one_segment(
            block,
            cycles,
            threads or block.kernel.threads_per_block,
            min_cycles,
        )

    return program


def run_single(kernel, program, num_blocks=1, spec=K20C):
    device = GPUDevice(spec)
    device.launch(kernel, program, num_blocks=num_blocks, charge_host=False)
    device.synchronize(charge_host=False)
    return device


class TestThroughputModel:
    def test_single_block_below_peak_utilization(self):
        # One 256-thread block = 8 warps, below K20C's warps_for_peak.
        # Effective lanes = cores * 8/warps_for_peak; time = work / lanes.
        device = run_single(kspec(), compute_program(4800.0))
        launch_overheads = K20C.us_to_cycles(K20C.launch_latency_us)
        compute = device.engine.now - launch_overheads
        lanes = K20C.cores_per_sm * 8 / K20C.warps_for_peak
        assert compute == pytest.approx(4800.0 * 256 / lanes, rel=1e-6)

    def test_two_blocks_on_one_sm_double_throughput(self):
        # Two resident blocks double the active warps -> double throughput,
        # so two blocks of the same work finish in the same wall time as one.
        single = run_single(kspec(), compute_program(4800.0), num_blocks=1)
        spec_one_sm = K20C.with_overrides(num_sms=1)
        double = run_single(
            kspec(), compute_program(4800.0), num_blocks=2, spec=spec_one_sm
        )
        assert double.engine.now == pytest.approx(single.engine.now, rel=1e-6)

    def test_throughput_saturates_at_peak_warps(self):
        # 8 blocks of 256 threads = 64 warps > warps_for_peak: total lane
        # throughput is capped at cores_per_sm, so doubling blocks past the
        # peak doubles the time.
        spec = K20C.with_overrides(num_sms=1)
        t4 = run_single(kspec(regs=16), compute_program(1000.0), 4, spec).engine.now
        t8 = run_single(kspec(regs=16), compute_program(1000.0), 8, spec).engine.now
        overhead = K20C.us_to_cycles(K20C.launch_latency_us)
        assert (t8 - overhead) == pytest.approx(2 * (t4 - overhead), rel=1e-6)

    def test_serial_portion_runs_at_one_lane(self):
        # A segment on threads=1 models a serial section: rate is capped at
        # 1 lane, so duration equals the cycle count.
        device = run_single(kspec(), compute_program(5000.0, threads=1))
        overhead = K20C.us_to_cycles(K20C.launch_latency_us)
        assert device.engine.now - overhead == pytest.approx(5000.0, rel=1e-6)

    def test_min_cycles_floor(self):
        device = run_single(kspec(), compute_program(10.0, min_cycles=9999.0))
        overhead = K20C.us_to_cycles(K20C.launch_latency_us)
        assert device.engine.now - overhead == pytest.approx(9999.0, rel=1e-4)

    def test_icache_pressure_slows_kernel(self):
        small = run_single(kspec(code_bytes=2048), compute_program(4800.0))
        big = run_single(
            kspec(code_bytes=64 * 1024), compute_program(4800.0)
        )
        assert big.engine.now > small.engine.now


class TestOccupancyDispatch:
    def test_register_hungry_blocks_serialize(self):
        # 255-reg blocks: 1 per SM.  On a 1-SM device, 3 blocks run one
        # after another -> 3x the single-block compute time.
        spec = K20C.with_overrides(num_sms=1)
        t1 = run_single(kspec(regs=255), compute_program(1000.0), 1, spec).engine.now
        t3 = run_single(kspec(regs=255), compute_program(1000.0), 3, spec).engine.now
        overhead = K20C.us_to_cycles(K20C.launch_latency_us)
        assert (t3 - overhead) == pytest.approx(3 * (t1 - overhead), rel=1e-6)

    def test_blocks_spread_across_sms(self):
        device = GPUDevice(K20C)
        seen_sms = []
        program = compute_program(
            100.0, on_start=lambda block: seen_sms.append(block.sm.sm_id)
        )
        device.launch(kspec(), program, num_blocks=13)
        device.synchronize(charge_host=False)
        assert sorted(seen_sms) == list(range(13))

    def test_sm_filter_restricts_placement(self):
        device = GPUDevice(K20C)
        seen_sms = []
        program = compute_program(
            100.0, on_start=lambda block: seen_sms.append(block.sm.sm_id)
        )
        device.launch(
            kspec(), program, num_blocks=4, sm_filter=frozenset({3, 7})
        )
        device.synchronize(charge_host=False)
        assert set(seen_sms) == {3, 7}


class TestStreams:
    def test_same_stream_serializes(self):
        device = GPUDevice(K20C.with_overrides(num_sms=1))
        order = []

        def make(name):
            def program(block):
                one_segment(
                    block, 1000.0, 256, 0.0, after=lambda: order.append(name)
                )

            return program

        stream = device.create_stream()
        device.launch(kspec(regs=16, name="a"), make("a"), 1, stream=stream)
        device.launch(kspec(regs=16, name="b"), make("b"), 1, stream=stream)
        device.synchronize(charge_host=False)
        assert order == ["a", "b"]

    def test_different_streams_concurrent(self):
        # Two kernels in two streams on one SM co-schedule: both resident,
        # so the makespan is far less than 2x the serial case.
        spec = K20C.with_overrides(num_sms=1)

        def run(n_streams):
            device = GPUDevice(spec)
            streams = [device.create_stream() for _ in range(n_streams)]
            for i in range(2):
                device.launch(
                    kspec(regs=16, name=f"k{i}"),
                    compute_program(2000.0),
                    1,
                    stream=streams[i % n_streams],
                )
            device.synchronize(charge_host=False)
            return device.engine.now

        assert run(2) < run(1)


class TestWaitAndDelay:
    def test_deadlock_detection(self):
        """A block whose program waits forever (it never finishes and
        nothing will resume it) leaves its launch incomplete when the
        event heap drains."""

        def program(block):
            pass  # never calls block._finish()

        device = GPUDevice(K20C)
        device.launch(kspec(), program, 1)
        with pytest.raises(SimulationDeadlock):
            device.synchronize(charge_host=False)


class TestMetrics:
    def test_launch_and_block_counters(self):
        device = GPUDevice(K20C)
        device.launch(kspec(), compute_program(10.0), 5)
        device.launch(kspec(), compute_program(10.0), 3)
        device.synchronize(charge_host=False)
        metrics = device.finalize_metrics()
        assert metrics.kernel_launches == 2
        assert metrics.blocks_launched == 8

    def test_memcpy_accounting(self):
        device = GPUDevice(K20C)
        before = device.host_time
        device.memcpy_h2d(1 << 20)
        assert device.host_time > before
        assert device.metrics.host_to_device_copies == 1
        assert device.metrics.bytes_copied == 1 << 20

    def test_utilization_in_unit_range(self):
        device = run_single(kspec(), compute_program(5000.0), num_blocks=13)
        metrics = device.finalize_metrics()
        util = metrics.utilization(K20C.cores_per_sm)
        assert 0.0 < util <= 1.0
