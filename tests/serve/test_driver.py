"""The open-loop driver: determinism, request accounting, all models."""

import json

import pytest

from repro.core.errors import ConfigurationError, ExecutionError
from repro.core.executor import FunctionalExecutor, ReplayExecutor
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C
from repro.obs import Observer
from repro.obs.spans import RequestItem
from repro.serve import (
    SERVE_MODELS,
    RequestTaggingExecutor,
    ServeConfig,
    serve_workload,
)
from repro.workloads.registry import get_workload


def _config(**overrides):
    base = dict(
        workload="ldpc",
        arrival_spec="poisson:0.5",
        duration_ms=10.0,
        slo_ms=5.0,
        seed=3,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestServeDriver:
    def test_repeat_runs_byte_identical(self):
        first = serve_workload(_config())
        second = serve_workload(_config())
        assert json.dumps(first.payload(), sort_keys=True) == json.dumps(
            second.payload(), sort_keys=True
        )

    def test_every_request_completes(self):
        report = serve_workload(_config(arrival_spec="poisson:1.0"))
        assert report.requests > 0
        assert report.completed == report.requests
        assert report.latency.count == report.completed
        assert report.arrivals.total == report.requests
        assert report.completions.total == report.completed

    def test_per_stage_breakdown_covers_pipeline(self):
        report = serve_workload(_config())
        stages = set(
            get_workload("ldpc").build_pipeline(
                get_workload("ldpc").quick_params()
            ).stage_names
        )
        assert set(report.stage_wait) == stages
        assert set(report.stage_service) == stages
        for stage in stages:
            assert report.stage_service[stage].count >= report.completed

    def test_latency_includes_queue_and_service(self):
        report = serve_workload(_config())
        # End-to-end latency can't be below the largest single visit.
        assert report.latency.max > 0
        assert report.elapsed_ms > 0

    def test_slo_accounting_consistent(self):
        report = serve_workload(_config(slo_ms=0.001))
        assert report.slo.violations == report.completed
        assert report.slo.first_violation_ms is not None
        tight = report.slo.attainment
        loose = serve_workload(_config(slo_ms=1e9)).slo.attainment
        assert tight == 0.0 and loose == 1.0

    @pytest.mark.parametrize("model", SERVE_MODELS)
    def test_all_serve_models_drain(self, model):
        report = serve_workload(
            _config(model=model, duration_ms=5.0, arrival_spec="poisson:0.4")
        )
        assert report.completed == report.requests > 0

    def test_seed_changes_schedule(self):
        a = serve_workload(_config(seed=1))
        b = serve_workload(_config(seed=2))
        assert a.arrivals.to_dict() != b.arrivals.to_dict()

    def test_observer_captures_request_events(self):
        observer = Observer()
        report = serve_workload(_config(), observer=observer)
        kinds = {event.kind for event in observer.events}
        assert {"req_arrive", "req_span", "req_done"} <= kinds
        done = [e for e in observer.events if e.kind == "req_done"]
        assert len(done) == report.completed

    def test_rejects_unservable_model(self):
        with pytest.raises(ConfigurationError, match="open-loop"):
            _config(model="rtc")

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError, match="duration"):
            _config(duration_ms=0.0)
        with pytest.raises(ConfigurationError, match="slo"):
            _config(slo_ms=-1.0)


class TestRequestTaggingExecutor:
    def test_children_inherit_request_id(self):
        spec = get_workload("ldpc")
        params = spec.quick_params()
        pipeline = spec.build_pipeline(params)
        executor = RequestTaggingExecutor(FunctionalExecutor(pipeline))
        stage, payloads = next(iter(spec.initial_items(params).items()))
        result = executor.run_task(stage, RequestItem(42, payloads[0]))
        assert result.children
        for _target, child in result.children:
            assert isinstance(child, RequestItem)
            assert child.rid == 42

    def test_replayed_result_is_not_mutated(self):
        """Replay shares one result per trace node, so tagging must build
        a new result rather than rewrite the shared one's children."""
        spec = get_workload("ldpc")
        params = spec.quick_params()
        pipeline = spec.build_pipeline(params)
        _profile, trace = profile_pipeline(
            pipeline, K20C, spec.initial_items(params)
        )
        executor = RequestTaggingExecutor(ReplayExecutor(pipeline, trace))
        stage, (node, *_rest) = next(iter(trace.initial.items()))
        shared = trace.replay_results()[node]
        recorded = tuple(shared.children)
        assert recorded

        def tagged(result):
            return [(t, c.rid, c.inner) for t, c in result.children]

        first = executor.run_task(stage, RequestItem(42, node))
        second = executor.run_task(stage, RequestItem(42, node))
        assert tuple(shared.children) == recorded
        assert tagged(first) == tagged(second)
        assert tagged(first) == [(t, 42, c) for t, c in recorded]

    def test_wrap_initial_forbidden(self):
        spec = get_workload("ldpc")
        pipeline = spec.build_pipeline(spec.quick_params())
        executor = RequestTaggingExecutor(FunctionalExecutor(pipeline))
        with pytest.raises(ExecutionError, match="deliver_arrival"):
            executor.wrap_initial("initialize", object())
