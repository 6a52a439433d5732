"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FunctionalExecutor, Pipeline, Stage, TaskCost
from repro.core.models import KBKModel, MegakernelModel, RTCModel
from repro.core.queues import queue_op_cost
from repro.core.queueset import SharedQueueSet
from repro.gpu import GPUDevice
from repro.gpu.kernel import KernelSpec
from repro.gpu.occupancy import max_blocks_per_sm, occupancy_report
from repro.gpu.specs import GTX1080, K20C

from .conftest import toy_expected, toy_pipeline

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


kernel_specs = st.builds(
    KernelSpec,
    name=st.just("k"),
    registers_per_thread=st.integers(min_value=1, max_value=255),
    threads_per_block=st.sampled_from([32, 64, 128, 256, 512, 1024]),
    shared_mem_per_block=st.integers(min_value=0, max_value=48 * 1024),
)


class TestOccupancyProperties:
    @_SETTINGS
    @given(kernel=kernel_specs, spec=st.sampled_from([K20C, GTX1080]))
    def test_resident_blocks_fit_all_resources(self, kernel, spec):
        """The occupancy result, multiplied out, never oversubscribes."""
        from repro.gpu.occupancy import (
            registers_per_block,
            shared_mem_per_block,
        )

        blocks = max_blocks_per_sm(kernel, spec)
        assert blocks >= 0
        if blocks:
            assert blocks * registers_per_block(kernel, spec) <= spec.registers_per_sm
            assert (
                blocks * shared_mem_per_block(kernel, spec)
                <= spec.shared_mem_per_sm
            )
            assert blocks * kernel.threads_per_block <= spec.max_threads_per_sm
            assert blocks <= spec.max_blocks_per_sm

    @_SETTINGS
    @given(kernel=kernel_specs)
    def test_one_more_block_would_not_fit(self, kernel):
        """Occupancy is maximal: blocks+1 violates some limit."""
        from repro.gpu.occupancy import (
            registers_per_block,
            shared_mem_per_block,
        )

        spec = K20C
        blocks = max_blocks_per_sm(kernel, spec)
        extra = blocks + 1
        violates = (
            extra * registers_per_block(kernel, spec) > spec.registers_per_sm
            or extra * shared_mem_per_block(kernel, spec)
            > spec.shared_mem_per_sm
            or extra * kernel.threads_per_block > spec.max_threads_per_sm
            or extra > spec.max_blocks_per_sm
        )
        assert violates

    @_SETTINGS
    @given(kernel=kernel_specs)
    def test_more_registers_never_increase_occupancy(self, kernel):
        heavier = KernelSpec(
            name="k2",
            registers_per_thread=min(255, kernel.registers_per_thread + 16),
            threads_per_block=kernel.threads_per_block,
            shared_mem_per_block=kernel.shared_mem_per_block,
        )
        assert max_blocks_per_sm(heavier, K20C) <= max_blocks_per_sm(
            kernel, K20C
        )

    @_SETTINGS
    @given(kernel=kernel_specs)
    def test_occupancy_fraction_unit_interval(self, kernel):
        frac = occupancy_report(kernel, K20C).occupancy_fraction
        assert 0.0 <= frac <= 1.0


class TestQueueProperties:
    @_SETTINGS
    @given(
        values=st.lists(st.integers(), max_size=60),
        group=st.integers(1, 7),
        chunk=st.integers(1, 7),
    )
    def test_fifo_preserves_order_and_count(self, values, group, chunk):
        qs = SharedQueueSet({"s": 8}, K20C)
        for start in range(0, len(values), group):
            qs.push("s", values[start:start + group], None)
        drained = []
        while qs.has_work("s"):
            drained.extend(qi.payload for qi in qs.pop("s", chunk, None)[0])
        assert drained == values
        stats = qs.stats()["s"]
        assert stats.enqueued == stats.dequeued == len(values)

    @_SETTINGS
    @given(
        item_bytes=st.integers(1, 512),
        n=st.integers(1, 100),
        contention=st.floats(0.0, 16.0),
    )
    def test_cost_monotone_in_items(self, item_bytes, n, contention):
        cost_n = queue_op_cost(K20C, item_bytes, n, contention)
        cost_n1 = queue_op_cost(K20C, item_bytes, n + 1, contention)
        assert cost_n1 > cost_n > 0


class TestModelEquivalenceProperty:
    @_SETTINGS
    @given(
        values=st.lists(
            st.integers(min_value=1, max_value=1000), min_size=1, max_size=25
        )
    )
    def test_models_agree_on_any_input(self, values):
        """RTC, KBK and Megakernel compute identical output multisets for
        arbitrary inputs (schedule independence of the pipeline)."""
        expected = toy_expected(values)
        for model in (RTCModel(), KBKModel(), MegakernelModel()):
            pipeline = toy_pipeline()
            device = GPUDevice(K20C)
            result = model.run(
                pipeline,
                device,
                FunctionalExecutor(pipeline),
                {"doubler": list(values)},
            )
            assert sorted(result.outputs) == expected

    @_SETTINGS
    @given(
        values=st.lists(
            st.integers(min_value=1, max_value=1000), min_size=1, max_size=25
        )
    )
    def test_time_positive_and_finite(self, values):
        pipeline = toy_pipeline()
        device = GPUDevice(K20C)
        result = MegakernelModel().run(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            {"doubler": list(values)},
        )
        assert math.isfinite(result.time_ms)
        assert result.time_ms > 0
