"""The paper's Figure 7: an 8-stage pipeline partitioned into four groups
— fine pipeline, megakernel, kernel-by-kernel, and run-to-completion —
with coarse (SM-exclusive) composition between groups.

Built here on a synthetic 8-stage pipeline and verified end to end, plus a
property-based check that *random* valid hybrid plans all compute the same
result (scheduling never changes semantics).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FunctionalExecutor, GroupConfig, PipelineConfig
from repro.core.models import HybridModel, KBKModel
from repro.gpu import GPUDevice, K20C
from repro.obs import Observer
from repro.obs.events import ComputeSegment
from repro.workloads import synthetic


def eight_stage_params():
    return synthetic.SyntheticParams(
        stages=tuple(
            synthetic.SyntheticStageSpec(
                registers_per_thread=regs, mean_cycles=cycles
            )
            for regs, cycles in (
                (48, 1500.0),
                (64, 2500.0),
                (48, 1000.0),
                (96, 4000.0),
                (72, 2000.0),
                (56, 1500.0),
                (40, 1000.0),
                (40, 800.0),
            )
        ),
        num_items=120,
    )


def figure7_config():
    """Fig. 7: stages 1-2 fine (SM1-4), 3-5 megakernel (SM5-7),
    6-7 KBK (SM8-12), 8 RTC (SM13) — translated to 0-based 13 SMs."""
    return PipelineConfig(
        groups=(
            GroupConfig(
                stages=("s0", "s1"),
                model="fine",
                sm_ids=tuple(range(0, 4)),
                block_map={"s0": 1, "s1": 3},
            ),
            GroupConfig(
                stages=("s2", "s3", "s4"),
                model="megakernel",
                sm_ids=tuple(range(4, 7)),
            ),
            GroupConfig(
                stages=("s5", "s6"),
                model="kbk",
                sm_ids=tuple(range(7, 12)),
            ),
            GroupConfig(
                stages=("s7",),
                model="rtc",
                sm_ids=(12,),
            ),
        )
    )


def run(model, params):
    pipeline = synthetic.build_pipeline(params)
    device = GPUDevice(K20C)
    return model.run(
        pipeline,
        device,
        FunctionalExecutor(pipeline),
        synthetic.initial_items(params),
    )


class TestFigure7:
    def test_figure7_plan_validates_and_runs(self):
        params = eight_stage_params()
        result = run(HybridModel(figure7_config()), params)
        reference = run(KBKModel(), params)
        assert len(result.outputs) == len(reference.outputs)
        assert result.time_ms > 0

    def test_figure7_description_names_all_models(self):
        text = figure7_config().describe()
        for token in ("fine", "megakernel", "kbk", "rtc"):
            assert token in text

    def test_groups_keep_exclusive_sms(self):
        params = eight_stage_params()
        pipeline = synthetic.build_pipeline(params)
        device = GPUDevice(K20C)
        observer = Observer().attach(device)
        HybridModel(figure7_config()).run(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            synthetic.initial_items(params),
        )
        config = figure7_config()
        sm_of_group = {}
        for gi, group in enumerate(config.groups):
            for sm in group.sm_ids:
                sm_of_group[sm] = gi
        # Kernel names identify the group; every trace segment must sit on
        # one of its group's SMs.
        stage_group = {
            s: gi
            for gi, g in enumerate(config.groups)
            for s in g.stages
        }
        for segment in observer.recorder.of_type(ComputeSegment):
            name = segment.kernel.split(":")[-1]
            stages = name.split("+")
            groups = {stage_group[s] for s in stages if s in stage_group}
            assert len(groups) == 1
            assert sm_of_group[segment.sm_id] == groups.pop()


def random_plan(draw, pipeline_names, num_sms):
    """Hypothesis helper: a random valid hybrid plan."""
    n = len(pipeline_names)
    # Random contiguous partition.
    cuts = draw(
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)
    )
    sizes = []
    current = 1
    for cut in cuts:
        if cut:
            sizes.append(current)
            current = 1
        else:
            current += 1
    sizes.append(current)
    if len(sizes) > num_sms:
        sizes = [n]  # too many groups for the device: collapse
    groups = []
    index = 0
    # Random SM allocation: at least one SM per group.
    remaining = num_sms - len(sizes)
    next_sm = 0
    for gi, size in enumerate(sizes):
        extra = draw(st.integers(0, remaining)) if remaining else 0
        remaining -= extra
        count = 1 + extra
        stages = tuple(pipeline_names[index : index + size])
        index += size
        model = draw(st.sampled_from(["megakernel", "rtc", "kbk"]))
        groups.append(
            GroupConfig(
                stages=stages,
                model=model,
                sm_ids=tuple(range(next_sm, next_sm + count)),
            )
        )
        next_sm += count
    return PipelineConfig(groups=tuple(groups))


class TestRandomPlansProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_valid_plan_preserves_semantics(self, data):
        params = synthetic.SyntheticParams.uniform(
            num_stages=4, fan_out=1.5, num_items=25
        )
        pipeline = synthetic.build_pipeline(params)
        plan = random_plan(data.draw, pipeline.stage_names, K20C.num_sms)
        plan.validate(pipeline, K20C)
        result = run(HybridModel(plan), params)
        reference = run(KBKModel(), params)
        assert len(result.outputs) == len(reference.outputs)
        assert result.time_ms > 0
