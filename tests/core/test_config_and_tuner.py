"""Configuration validation, search-space enumeration, offline tuner."""

import math

import pytest

from repro.core import GroupConfig, PipelineConfig
from repro.core.errors import ConfigurationError
from repro.core.tuner.offline import OfflineTuner, TunerOptions
from repro.core.tuner.profiler import profile_pipeline
from repro.core.tuner.space import (
    contiguous_partitions,
    enumerate_configs,
    fine_block_maps,
    group_model_candidates,
    sm_allocations,
)
from repro.gpu.specs import K20C

from .conftest import toy_pipeline


class TestGroupConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(stages=("a",), model="quantum", sm_ids=(0,))

    def test_empty_stage_group_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(stages=(), model="megakernel", sm_ids=(0,))

    def test_no_sms_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(stages=("a",), model="megakernel", sm_ids=())

    def test_fine_requires_block_map(self):
        with pytest.raises(ConfigurationError, match="block_map"):
            GroupConfig(stages=("a", "b"), model="fine", sm_ids=(0,))

    def test_fine_block_map_must_cover_stages(self):
        with pytest.raises(ConfigurationError, match="missing"):
            GroupConfig(
                stages=("a", "b"),
                model="fine",
                sm_ids=(0,),
                block_map={"a": 1},
            )


class TestPipelineConfigValidation:
    def _config(self, groups):
        return PipelineConfig(groups=tuple(groups))

    def test_partition_must_be_exact(self):
        pipe = toy_pipeline()
        config = self._config(
            [GroupConfig(stages=("doubler",), model="megakernel", sm_ids=(0,))]
        )
        with pytest.raises(ConfigurationError, match="partition"):
            config.validate(pipe, K20C)

    def test_overlapping_sms_rejected(self):
        pipe = toy_pipeline()
        config = self._config(
            [
                GroupConfig(
                    stages=("doubler", "adder"),
                    model="megakernel",
                    sm_ids=(0, 1),
                ),
                GroupConfig(stages=("sink",), model="megakernel", sm_ids=(1,)),
            ]
        )
        with pytest.raises(ConfigurationError, match="more than one group"):
            config.validate(pipe, K20C)

    def test_sm_out_of_range_rejected(self):
        pipe = toy_pipeline()
        config = self._config(
            [
                GroupConfig(
                    stages=("doubler", "adder", "sink"),
                    model="megakernel",
                    sm_ids=(99,),
                )
            ]
        )
        with pytest.raises(ConfigurationError, match="out of range"):
            config.validate(pipe, K20C)

    def test_describe_mentions_groups(self):
        config = self._config(
            [
                GroupConfig(
                    stages=("doubler", "adder", "sink"),
                    model="megakernel",
                    sm_ids=tuple(range(13)),
                )
            ]
        )
        text = config.describe()
        assert "megakernel" in text
        assert "0-12" in text


class TestSpaceEnumeration:
    def test_partition_count(self):
        assert len(list(contiguous_partitions(3))) == 4  # 2^(n-1)
        assert len(list(contiguous_partitions(5))) == 16

    def test_partitions_cover(self):
        for sizes in contiguous_partitions(4):
            assert sum(sizes) == 4

    def test_coarsest_first(self):
        first = next(contiguous_partitions(4))
        assert first == (4,)

    def test_group_model_candidates(self):
        pipe = toy_pipeline()
        singleton = group_model_candidates(pipe, ("doubler",), K20C)
        assert "megakernel" in singleton
        assert "fine" not in singleton  # single-stage fine == megakernel
        pair = group_model_candidates(pipe, ("adder", "sink"), K20C)
        assert "fine" in pair

    def test_sm_allocations_sum_and_positivity(self):
        for allocation in sm_allocations(13, [3.0, 1.0, 1.0]):
            assert sum(allocation) == 13
            assert all(count >= 1 for count in allocation)

    def test_sm_allocations_proportional_base(self):
        base = sm_allocations(12, [3.0, 1.0])[0]
        assert base == (9, 3)

    def test_sm_allocations_too_many_groups(self):
        assert sm_allocations(2, [1.0, 1.0, 1.0]) == []

    def test_fine_block_maps_feasible_and_maximal(self):
        pipe = toy_pipeline()
        maps = fine_block_maps(pipe, K20C, ("adder", "sink"))
        assert maps, "expected feasible fine maps"
        # Every returned map must itself validate.
        for block_map in maps:
            GroupConfig(
                stages=("adder", "sink"),
                model="fine",
                sm_ids=(0,),
                block_map=block_map,
            )
            config = PipelineConfig(
                groups=(
                    GroupConfig(
                        stages=("doubler",),
                        model="megakernel",
                        sm_ids=(0,),
                    ),
                    GroupConfig(
                        stages=("adder", "sink"),
                        model="fine",
                        sm_ids=tuple(range(1, 13)),
                        block_map=block_map,
                    ),
                )
            )
            config.validate(toy_pipeline(), K20C)

    def test_enumerate_configs_all_valid(self):
        pipe = toy_pipeline()
        count = 0
        for config in enumerate_configs(pipe, K20C):
            config.validate(pipe, K20C)
            count += 1
            if count >= 60:
                break
        assert count == 60

    def test_enumeration_deterministic(self):
        pipe = toy_pipeline()
        first = [c.describe() for _, c in zip(range(25), enumerate_configs(pipe, K20C))]
        second = [c.describe() for _, c in zip(range(25), enumerate_configs(pipe, K20C))]
        assert first == second


class TestOfflineTuner:
    @pytest.fixture
    def tuner(self):
        pipe = toy_pipeline()
        initial = {"doubler": list(range(1, 200))}
        profile, trace = profile_pipeline(pipe, K20C, initial)
        return OfflineTuner(
            pipe,
            K20C,
            trace,
            profile=profile,
            options=TunerOptions(max_configs=40),
        )

    def test_tune_returns_feasible_best(self, tuner):
        report = tuner.tune()
        assert math.isfinite(report.best_time_ms)
        report.best_config.validate(toy_pipeline(), K20C)
        assert report.num_evaluated <= 40

    def test_best_is_minimum_of_completed(self, tuner):
        report = tuner.tune()
        finished = [
            e.time_ms for e in report.evaluated if math.isfinite(e.time_ms)
        ]
        assert report.best_time_ms == min(finished)

    def test_timeout_prunes(self, tuner):
        report = tuner.tune()
        pruned = [
            e
            for e in report.evaluated
            if e.note in ("timeout", "dominated")
        ]
        # The shrinking-deadline scheme (or the dominance cut, which skips
        # candidates that would provably time out) must prune at least one
        # candidate on a pipeline where configs differ substantially.
        assert pruned

    def test_final_config_carries_online_adaptation(self, tuner):
        report = tuner.tune()
        assert report.best_config.online_adaptation is True

    def test_evaluate_respects_deadline(self, tuner):
        from repro.core.tuner.offline import DeadlineExceeded

        config = next(iter(enumerate_configs(toy_pipeline(), K20C)))
        with pytest.raises(DeadlineExceeded):
            tuner.evaluate(config, deadline_cycles=10.0)

    def test_summary_mentions_best(self, tuner):
        report = tuner.tune()
        assert "best" in report.summary()


class TestTunerOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout_slack", 0.5),
            ("timeout_slack", 0.999),
            ("timeout_slack", float("nan")),
            ("max_configs", 0),
            ("max_configs", -3),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        # A slack below 1 lets the deadline undercut the best time, so
        # the search could time out its own winner and return a worse
        # plan (slack 0.5 did, on the toy space).
        with pytest.raises(ValueError, match=field):
            TunerOptions(**{field: value})

    def test_boundary_values_accepted(self):
        options = TunerOptions(max_configs=1, timeout_slack=1.0)
        assert options.timeout_slack == 1.0
