"""Synthetic pipeline generator: determinism, purity, model agreement."""

import pytest

from repro.core.executor import FunctionalExecutor, RecordingExecutor
from repro.core.models import KBKModel, MegakernelModel, RTCModel
from repro.core.stage import EmitContext
from repro.gpu import GPUDevice, K20C
from repro.workloads import synthetic


def run(params, model=None):
    pipeline = synthetic.build_pipeline(params)
    device = GPUDevice(K20C)
    return (model or MegakernelModel()).run(
        pipeline,
        device,
        FunctionalExecutor(pipeline),
        synthetic.initial_items(params),
    )


class TestGeneration:
    def test_uniform_builds_named_chain(self):
        params = synthetic.SyntheticParams.uniform(num_stages=4)
        pipeline = synthetic.build_pipeline(params)
        assert pipeline.stage_names == ["s0", "s1", "s2", "s3"]
        assert pipeline.structure == "linear"

    def test_recursive_spec_classified_as_recursion(self):
        params = synthetic.SyntheticParams(
            stages=(
                synthetic.SyntheticStageSpec(recursion_prob=0.3),
                synthetic.SyntheticStageSpec(),
            ),
            num_items=10,
        )
        pipeline = synthetic.build_pipeline(params)
        assert pipeline.structure == "recursion"

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            synthetic.build_pipeline(
                synthetic.SyntheticParams(stages=(), num_items=1)
            )


class TestDeterminismAndPurity:
    def test_repeat_runs_identical(self):
        params = synthetic.SyntheticParams.uniform(
            num_stages=3, fan_out=1.5, imbalance=0.5, num_items=50
        )
        first = run(params)
        second = run(params)
        assert first.time_ms == second.time_ms
        assert len(first.outputs) == len(second.outputs)

    def test_seed_changes_workload(self):
        base = synthetic.SyntheticParams.uniform(
            num_stages=2, fan_out=1.5, num_items=100, seed=1
        )
        other = synthetic.SyntheticParams.uniform(
            num_stages=2, fan_out=1.5, num_items=100, seed=2
        )
        assert len(run(base).outputs) != len(run(other).outputs) or (
            run(base).time_ms != run(other).time_ms
        )

    def test_models_agree_on_output_count(self):
        params = synthetic.SyntheticParams.uniform(
            num_stages=3, fan_out=2.0, num_items=30
        )
        counts = {
            name: len(run(params, model).outputs)
            for name, model in (
                ("rtc", RTCModel()),
                ("kbk", KBKModel()),
                ("megakernel", MegakernelModel()),
            )
        }
        assert len(set(counts.values())) == 1, counts

    def test_output_range_bounds_hold(self):
        params = synthetic.SyntheticParams.uniform(
            num_stages=3, fan_out=1.7, num_items=40
        )
        low, high = synthetic.expected_output_range(params)
        outputs = len(run(params).outputs)
        assert low <= outputs <= high

    def test_recursion_depth_capped(self):
        params = synthetic.SyntheticParams(
            stages=(
                synthetic.SyntheticStageSpec(recursion_prob=0.99),
            ),
            num_items=20,
            max_depth=5,
        )
        pipeline = synthetic.build_pipeline(params)
        executor = RecordingExecutor(pipeline)
        from repro.core.tuner.profiler import profile_pipeline

        profile, _trace = profile_pipeline(
            pipeline, K20C, synthetic.initial_items(params)
        )
        # At most max_depth recursions per item plus the entry task.
        assert profile.stages["s0"].tasks <= 20 * (params.max_depth + 1)


class TestCostModel:
    def test_imbalance_spreads_costs(self):
        spec = synthetic.SyntheticStageSpec(imbalance=0.8)
        params = synthetic.SyntheticParams(stages=(spec,), num_items=200)
        pipeline = synthetic.build_pipeline(params)
        stage = pipeline.stage("s0")
        costs = [
            stage.cost(item).cycles_per_thread
            for item in synthetic.initial_items(params)["s0"]
        ]
        assert max(costs) > 1.5 * min(costs)
        for cost in costs:
            assert (
                spec.mean_cycles * 0.2
                <= cost
                <= spec.mean_cycles * 1.8
            )

    def test_zero_imbalance_uniform_costs(self):
        params = synthetic.SyntheticParams.uniform(num_stages=1)
        pipeline = synthetic.build_pipeline(params)
        stage = pipeline.stage("s0")
        costs = {
            stage.cost(item).cycles_per_thread
            for item in synthetic.initial_items(params)["s0"]
        }
        assert len(costs) == 1


class TestBatchedDrain:
    """``_SyntheticStage.execute_batch`` against its scalar loop: each
    flat-slice branch and the fallback off the slice must emit the same
    children and outputs, in the same order, and return the same costs
    as ``execute`` and ``cost`` item by item."""

    @pytest.mark.parametrize(
        "spec, sink",
        [
            (synthetic.SyntheticStageSpec(fan_out=2.0), True),
            (synthetic.SyntheticStageSpec(fan_out=1.0), False),
            (synthetic.SyntheticStageSpec(fan_out=3.0), False),
            (
                synthetic.SyntheticStageSpec(
                    fan_out=1.5, imbalance=0.5, recursion_prob=0.3
                ),
                False,
            ),
        ],
        ids=["sink", "fan-out-1", "fan-out-3", "off-slice"],
    )
    def test_batch_matches_scalar_loop(self, spec, sink):
        stages = (spec,) if sink else (spec, synthetic.SyntheticStageSpec())
        params = synthetic.SyntheticParams(stages=stages, num_items=9)
        stage = synthetic.build_pipeline(params).stage("s0")
        items = synthetic.initial_items(params)["s0"]
        batched = [EmitContext(stage.emits_to) for _ in items]
        costs = stage.execute_batch(items, batched)
        scalar = [EmitContext(stage.emits_to) for _ in items]
        for item, ctx in zip(items, scalar):
            stage.execute(item, ctx)
        assert costs == [stage.cost(item) for item in items]
        assert [c.children for c in batched] == [c.children for c in scalar]
        assert [c.outputs for c in batched] == [c.outputs for c in scalar]
        assert all(c.outputs for c in scalar) is sink
        assert any(c.children for c in scalar) is not sink
