"""Execution-runner internals: persistent groups, KBK lanes/groups,
locality adjustment, online adaptation."""

import pytest

from repro.core import (
    FunctionalExecutor,
    GroupConfig,
    Pipeline,
    PipelineConfig,
    Stage,
    TaskCost,
)
from repro.core.errors import ConfigurationError
from repro.core.exec.kbk import run_kbk
from repro.core.exec.persistent import (
    SCHEDULER_CODE_BYTES,
    PersistentGroupRunner,
    locality_adjusted,
)
from repro.core.models.hybrid import HybridEngine, OnlineAdapter
from repro.core.runcontext import RunContext
from repro.gpu import GPUDevice, K20C
from repro.obs import Observer
from repro.obs.events import ComputeSegment

from .conftest import AdderStage, DoublerStage, SinkStage, toy_pipeline


def make_engine(config, initial=None, pipeline=None):
    pipeline = pipeline or toy_pipeline()
    device = GPUDevice(K20C)
    engine = HybridEngine(
        pipeline, device, FunctionalExecutor(pipeline), config
    )
    return engine, initial or {"doubler": list(range(1, 30))}


class TestLocalityAdjusted:
    def test_same_sm_discounts_memory_fraction(self):
        cost = TaskCost(1000.0, mem_fraction=0.6)
        local = locality_adjusted(cost, producer_sm=3, current_sm=3, l1_bonus=0.25)
        remote = locality_adjusted(cost, producer_sm=3, current_sm=4, l1_bonus=0.25)
        assert local == pytest.approx(1000.0 * (1 - 0.6 * 0.25))
        assert remote == 1000.0

    def test_host_produced_items_get_no_discount(self):
        cost = TaskCost(1000.0, mem_fraction=0.6)
        assert locality_adjusted(cost, None, 3, 0.25) == 1000.0

    def test_zero_mem_fraction_unaffected(self):
        cost = TaskCost(1000.0, mem_fraction=0.0)
        assert locality_adjusted(cost, 3, 3, 0.25) == 1000.0


class TestPersistentGroupRunner:
    def test_rejects_kbk_groups(self):
        pipeline = toy_pipeline()
        ctx = RunContext(pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline))
        with pytest.raises(ConfigurationError):
            PersistentGroupRunner(
                ctx,
                GroupConfig(
                    stages=("doubler",), model="kbk", sm_ids=(0,)
                ),
            )

    def test_fused_kernel_includes_scheduler_code(self):
        pipeline = toy_pipeline()
        ctx = RunContext(pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline))
        runner = PersistentGroupRunner(
            ctx,
            GroupConfig(
                stages=("doubler", "adder", "sink"),
                model="megakernel",
                sm_ids=(0,),
            ),
        )
        fused = runner.fused_kernel()
        stage_code = sum(
            pipeline.stage(s).code_bytes
            for s in ("doubler", "adder", "sink")
        )
        assert fused.code_bytes == stage_code + SCHEDULER_CODE_BYTES

    def test_single_stage_group_has_no_scheduler_overhead(self):
        pipeline = toy_pipeline()
        ctx = RunContext(pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline))
        runner = PersistentGroupRunner(
            ctx,
            GroupConfig(stages=("sink",), model="megakernel", sm_ids=(0,)),
        )
        assert (
            runner.fused_kernel().code_bytes
            == pipeline.stage("sink").code_bytes
        )

    def test_blocks_stay_on_assigned_sms(self):
        config = PipelineConfig(
            groups=(
                GroupConfig(
                    stages=("doubler", "adder", "sink"),
                    model="megakernel",
                    sm_ids=(2, 5, 9),
                ),
            )
        )
        engine, initial = make_engine(config)
        observer = Observer().attach(engine.device)
        engine.run(initial)
        segments = observer.recorder.of_type(ComputeSegment)
        assert segments
        assert {seg.sm_id for seg in segments} <= {2, 5, 9}

    def test_fine_blocks_follow_block_map(self):
        config = PipelineConfig(
            groups=(
                GroupConfig(
                    stages=("doubler", "adder", "sink"),
                    model="fine",
                    sm_ids=(0, 1),
                    block_map={"doubler": 1, "adder": 1, "sink": 1},
                ),
            )
        )
        engine, initial = make_engine(config)
        result = engine.run(initial)
        # 3 stages x 1 block x 2 SMs.
        assert result.device_metrics.blocks_launched == 6


class TestKBKLanes:
    def test_sequential_lane_processes_items_in_turn(self):
        pipeline = toy_pipeline()
        device = GPUDevice(K20C)
        outputs, stats, waves = run_kbk(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            {"doubler": [1, 9]},
            sequential=True,
        )
        device.finalize_metrics()
        assert len(outputs) == 2
        # Item 1 recurses (1->2->4->8->16): 4 doubler waves + adder + sink;
        # item 9 needs 1 doubler wave + adder + sink.
        assert waves == 6 + 3

    def test_batched_mode_consolidates_waves(self):
        pipeline = toy_pipeline()
        device = GPUDevice(K20C)
        _outputs, _stats, waves_batched = run_kbk(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            {"doubler": [1, 9]},
            sequential=False,
        )
        assert waves_batched < 9

    def test_stats_count_every_task(self):
        pipeline = toy_pipeline()
        device = GPUDevice(K20C)
        _outputs, stats, _waves = run_kbk(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            {"doubler": [1]},
        )
        assert stats["doubler"].tasks == 4
        assert stats["adder"].tasks == 1
        assert stats["sink"].tasks == 1


class TestOnlineAdapter:
    def _imbalanced_config(self, adapt, model="megakernel", block_map=None):
        return PipelineConfig(
            groups=(
                GroupConfig(
                    stages=("doubler",),
                    model="megakernel",
                    sm_ids=tuple(range(0, 10)),
                ),
                GroupConfig(
                    stages=("adder", "sink"),
                    model=model,
                    sm_ids=(10, 11, 12),
                    block_map=block_map,
                ),
            ),
            online_adaptation=adapt,
        )

    def test_adaptation_triggers_and_helps(self):
        # Enough items that the downstream group still has backlog when the
        # doubler group's blocks exit (the host reaction takes ~30 us).
        initial = {"doubler": [1] * 4000}
        static_engine, _ = make_engine(self._imbalanced_config(False))
        static = static_engine.run(initial)
        adaptive_engine, _ = make_engine(self._imbalanced_config(True))
        adaptive = adaptive_engine.run(initial)
        assert adaptive.extras["online_adaptations"] >= 1
        # At this small scale the extra launch can cost as much as it
        # recovers; it must at least stay near-neutral (the clear win case
        # is exercised in benchmarks/bench_ablations.py on Reyes).
        assert adaptive.time_ms <= static.time_ms * 1.15

    @pytest.mark.parametrize(
        "model, block_map, time_ms, static_blocks, adaptive_blocks",
        [
            ("megakernel", None, 0.08566490883998355, 46, 66),
            ("fine", {"adder": 1, "sink": 2}, 0.0917302825597482, 49, 79),
        ],
    )
    def test_relaunch_refills_freed_sms(
        self, model, block_map, time_ms, static_blocks, adaptive_blocks
    ):
        # The doubler group exits with adder+sink backlog left, and the
        # adapter relaunches that group on the 10 freed SMs: at its fused
        # occupancy (2 blocks per SM) or at its block map (1 + 2).
        initial = {"doubler": [1] * 4000}
        static_engine, _ = make_engine(
            self._imbalanced_config(False, model, block_map)
        )
        static = static_engine.run(initial)
        adaptive_engine, _ = make_engine(
            self._imbalanced_config(True, model, block_map)
        )
        adaptive = adaptive_engine.run(initial)
        assert static.extras["persistent_blocks"] == static_blocks
        assert adaptive.extras["online_adaptations"] == 1
        assert adaptive.extras["persistent_blocks"] == adaptive_blocks
        assert adaptive.time_ms == time_ms

    def test_no_adaptation_without_backlog(self):
        # Tiny workload drains before any group exits with backlog left.
        engine, _ = make_engine(self._imbalanced_config(True))
        result = engine.run({"doubler": [9]})
        assert result.extras["online_adaptations"] == 0
