"""The load-adaptive serving control plane: admission and batching.

Unit tests pin the controller pieces (spec parsing, shed decisions,
batch-size targets) and the run-context hooks they ride on
(``release_arrivals``, ``batch_governor``); the end-to-end tests pin
the adaptive driver contracts — exact shed accounting, sheds that cost
nothing downstream, and byte-identical reports for any worker count.
"""

import json

import pytest

from repro.core.errors import ConfigurationError, ExecutionError
from repro.core.executor import FunctionalExecutor
from repro.core.runcontext import RunContext
from repro.gpu import GPUDevice, K20C
from repro.obs import Observer
from repro.serve import (
    ServeConfig,
    merge_serve_reports,
    run_serve_cells,
    serve_workload,
)
from repro.serve.controller import (
    AdmissionSpecError,
    BatchFormer,
    DropTailAdmission,
    LatencyPredictor,
    ServeController,
    SloEwmaAdmission,
    parse_admission_spec,
)
from repro.workloads.registry import get_workload


def _payload_json(report):
    return json.dumps(report.payload(), sort_keys=True)


class TestAdmissionSpec:
    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("none:1", "takes no argument"),
            ("drop-tail", "needs a queue cap"),
            ("drop-tail:", "needs a queue cap"),
            ("drop-tail:x", "must be an integer"),
            ("drop-tail:0", "must be >= 1"),
            ("slo-ewma:abc", "must be a number"),
            ("slo-ewma:0", "must be > 0"),
            ("slo-ewma:-1", "must be > 0"),
            ("random-drop", "unknown admission policy"),
        ],
    )
    def test_rejects_malformed_specs(self, spec, fragment):
        with pytest.raises(AdmissionSpecError, match=fragment):
            parse_admission_spec(spec)

    def test_parses_valid_specs(self):
        assert parse_admission_spec("none").kind == "none"
        tail = parse_admission_spec("drop-tail:32")
        assert isinstance(tail, DropTailAdmission) and tail.cap == 32
        ewma = parse_admission_spec("slo-ewma")
        assert isinstance(ewma, SloEwmaAdmission) and ewma.margin == 1.0
        assert parse_admission_spec("slo-ewma:0.8").margin == 0.8

    def test_describe_round_trips(self):
        for spec in ("none", "drop-tail:16", "slo-ewma:1.5"):
            assert parse_admission_spec(spec).describe() == spec

    def test_serve_config_validates_admission(self):
        with pytest.raises(ConfigurationError, match="unknown admission"):
            ServeConfig(
                workload="ldpc",
                arrival_spec="poisson:0.5",
                duration_ms=5.0,
                slo_ms=5.0,
                admission="bogus",
            )


class TestAdmissionPolicies:
    def _controller(self, admission, slo_ms=5.0):
        return ServeController(admission=admission, slo_ms=slo_ms)

    def test_none_never_sheds(self):
        controller = self._controller("none")
        assert not controller.should_shed()

    def test_drop_tail_sheds_at_cap(self):
        controller = self._controller("drop-tail:3")
        controller._backlog = {"a": 1, "b": 1}
        assert not controller.should_shed()
        controller._backlog["b"] = 2
        assert controller.should_shed()

    def test_slo_ewma_cold_start_admits(self):
        controller = self._controller("slo-ewma")
        controller.predictor.note_visit("s", 100.0, 100.0)
        # No completed request yet: prediction is 0, admit everything.
        assert not controller.should_shed()

    def test_slo_ewma_sheds_on_predicted_blowout(self):
        controller = self._controller("slo-ewma", slo_ms=5.0)
        predictor = controller.predictor
        predictor.note_visit("s", wait_ms=4.0, service_ms=3.0)
        predictor.note_request({"s": 1})
        assert predictor.predicted_latency_ms() == pytest.approx(7.0)
        assert controller.should_shed()
        # A laxer margin tolerates the same prediction.
        lax = self._controller("slo-ewma:2.0", slo_ms=5.0)
        lax.predictor.note_visit("s", 4.0, 3.0)
        lax.predictor.note_request({"s": 1})
        assert not lax.should_shed()

    def test_predictor_exists_only_where_something_reads_it(self):
        """The driver feeds the predictor only when it exists, so a cell
        with neither ``slo-ewma`` admission nor a batch former skips the
        feed."""
        assert self._controller("none").predictor is None
        assert self._controller("drop-tail:3").predictor is None
        assert self._controller("slo-ewma").predictor is not None
        batched = ServeController(admission="none", slo_ms=5.0, max_batch=4)
        assert batched.predictor is batched.former.predictor


class TestLatencyPredictor:
    def test_prediction_sums_stage_visit_costs(self):
        predictor = LatencyPredictor()
        predictor.note_visit("a", wait_ms=1.0, service_ms=2.0)
        predictor.note_visit("b", wait_ms=0.5, service_ms=0.5)
        predictor.note_request({"a": 2, "b": 1})
        # 2 visits * (1+2) + 1 visit * (0.5+0.5)
        assert predictor.predicted_latency_ms() == pytest.approx(7.0)

    def test_ewma_tracks_recent_samples(self):
        predictor = LatencyPredictor()
        predictor.note_visit("a", 1.0, 1.0)
        predictor.note_request({"a": 1})
        low = predictor.predicted_latency_ms()
        for _ in range(20):
            predictor.note_visit("a", 10.0, 10.0)
        assert predictor.predicted_latency_ms() > low * 5


class TestBatchFormer:
    def _former(self, max_batch=16, slo_ms=10.0):
        return BatchFormer(slo_ms, max_batch, LatencyPredictor())

    def test_idle_pipeline_pops_singles(self):
        assert self._former().target("s", 0) == 1

    def test_target_grows_with_depth(self):
        former = self._former(max_batch=16)
        targets = [former.target("s", depth) for depth in (0, 4, 8, 64, 1024)]
        assert targets == sorted(targets)
        assert targets[0] == 1
        # Depth pressure saturates asymptotically just below the
        # ceiling; only SLO pressure (clamped to 1.0) reaches it.
        assert targets[-1] == 15

    def test_slo_pressure_grows_batches(self):
        former = self._former(max_batch=16, slo_ms=10.0)
        former.predictor.note_visit("s", 5.0, 5.0)
        former.predictor.note_request({"s": 1})
        # Predicted latency == budget: full throughput mode even when
        # the queue itself is shallow.
        assert former.target("s", 1) == 16

    def test_max_batch_one_is_always_one(self):
        former = self._former(max_batch=1)
        assert former.target("s", 10**6) == 1

    def test_controller_clamps_never_raises_cap(self):
        controller = ServeController(
            admission="none", slo_ms=10.0, max_batch=64
        )
        controller._backlog = {"s": 10**6}
        assert controller.batch_limit("s", 4) == 4
        controller._backlog = {"s": 0}
        assert controller.batch_limit("s", 64) == 1


class TestRunContextHooks:
    def _ctx(self):
        spec = get_workload("ldpc")
        params = spec.quick_params()
        pipeline = spec.build_pipeline(params)
        return RunContext(
            pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline)
        )

    def test_release_returns_reservations(self):
        ctx = self._ctx()
        ctx.expect_arrivals({"initialize": 3})
        assert ctx.total_outstanding == 3
        ctx.release_arrivals({"initialize": 2})
        assert ctx.total_outstanding == 1
        assert ctx.outstanding["initialize"] == 1

    def test_release_rejects_unknown_stage(self):
        ctx = self._ctx()
        with pytest.raises(ConfigurationError, match="unknown stage"):
            ctx.release_arrivals({"nope": 1})

    def test_release_rejects_negative(self):
        ctx = self._ctx()
        with pytest.raises(ConfigurationError, match=">= 0"):
            ctx.release_arrivals({"initialize": -1})

    def test_release_rejects_overdraw(self):
        ctx = self._ctx()
        ctx.expect_arrivals({"initialize": 1})
        with pytest.raises(ExecutionError, match="more arrivals"):
            ctx.release_arrivals({"initialize": 2})


def _config(**overrides):
    base = dict(
        workload="ldpc",
        arrival_spec="poisson:0.8",
        duration_ms=10.0,
        slo_ms=20.0,
        seed=42,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestAdaptiveServe:
    def test_static_cell_matches_never_shedding_admission(self):
        """A static cell is the admit-everything run: its payload equals
        that of an admission policy that never sheds at this load,
        ``sheds`` window included."""
        fields = dict(arrival_spec="poisson:0.5", duration_ms=6.0,
                      slo_ms=6.0, window_ms=2.0)
        static = serve_workload(_config(**fields))
        drop_tail = serve_workload(
            _config(admission="drop-tail:1000", **fields)
        )
        assert drop_tail.shed == 0
        assert _payload_json(static) == _payload_json(drop_tail)
        assert static.payload()["sheds"]["window_ms"] == 2.0

    def test_shed_accounting_is_exact(self):
        report = serve_workload(
            _config(arrival_spec="poisson:3.0", slo_ms=6.0,
                    duration_ms=20.0, admission="slo-ewma:1.0")
        )
        assert report.shed > 0
        assert report.requests == report.completed + report.shed
        assert report.slo.shed == report.shed
        assert report.sheds.total == report.shed
        assert report.latency.count == report.completed
        payload = report.payload()
        assert payload["shed"] == report.shed
        assert payload["slo"]["shed"] == report.shed
        assert 0.0 <= payload["slo"]["offered_attainment"] <= 1.0

    def test_drop_tail_sheds_under_overload(self):
        report = serve_workload(
            _config(arrival_spec="poisson:4.0", admission="drop-tail:2")
        )
        assert report.shed > 0
        assert report.requests == report.completed + report.shed

    def test_sheds_cost_nothing_downstream(self):
        observer = Observer()
        report = serve_workload(
            _config(arrival_spec="poisson:3.0", slo_ms=6.0,
                    duration_ms=20.0, admission="slo-ewma:1.0"),
            observer=observer,
        )
        kinds = {event.kind for event in observer.events}
        assert "req_shed" in kinds
        sheds = [e for e in observer.events if e.kind == "req_shed"]
        assert len(sheds) == report.shed
        shed_rids = {e.rid for e in sheds}
        span_rids = {
            e.rid for e in observer.events if e.kind == "req_span"
        }
        assert not (shed_rids & span_rids)

    def test_adaptive_repeat_runs_byte_identical(self):
        cfg = _config(admission="slo-ewma", max_batch=8, slo_ms=6.0,
                      arrival_spec="poisson:2.0")
        assert _payload_json(serve_workload(cfg)) == _payload_json(
            serve_workload(cfg)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_adaptive_workers_byte_identical(self, workers):
        configs = [
            _config(workload=name, admission="slo-ewma", max_batch=8,
                    slo_ms=6.0, arrival_spec="poisson:1.5")
            for name in ("ldpc", "reyes", "face_detection")
        ]
        reports = run_serve_cells(configs, workers=workers)
        key = "|".join(_payload_json(r) for r in reports)
        if not hasattr(type(self), "_workers_baseline"):
            type(self)._workers_baseline = key
        assert key == type(self)._workers_baseline
        merged = merge_serve_reports(reports)
        assert merged.requests == sum(r.requests for r in reports)

    def test_dynamic_batching_run_completes_and_is_deterministic(self):
        cfg = _config(max_batch=1, arrival_spec="poisson:2.0")
        observer = Observer()
        report = serve_workload(cfg, observer=observer)
        assert report.completed == report.requests > 0
        pops = [e for e in observer.events if e.kind == "queue_pop"]
        assert pops and all(pop.count == 1 for pop in pops)
        assert _payload_json(report) == _payload_json(serve_workload(cfg))

    def test_governor_clamps_engine_pops_and_drains(self):
        spec = get_workload("ldpc")
        pipeline = spec.build_pipeline(spec.quick_params())
        ctx = RunContext(
            pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline)
        )
        stage = "c2v"
        for value in range(6):
            ctx.queue_set.push(stage, [value], None)

        # Governed KBK drain: the oversized wave is split to the clamp.
        ctx.batch_governor = lambda s, cap: 2
        first = ctx.drain_stage(stage)
        assert len(first) == 2
        # Without a governor the drain takes the whole backlog.
        ctx.batch_governor = None
        rest = ctx.drain_stage(stage)
        assert len(rest) == 4

    def test_queueset_drain_respects_max_items(self):
        spec = get_workload("ldpc")
        pipeline = spec.build_pipeline(spec.quick_params())
        ctx = RunContext(
            pipeline, GPUDevice(K20C), FunctionalExecutor(pipeline)
        )
        qs = ctx.queue_set
        for value in range(5):
            qs.push("v2c", [value], None)
        assert len(qs.drain("v2c", 3)) == 3
        assert qs.depth.current["v2c"] == 2
        assert len(qs.drain("v2c")) == 2
        assert qs.depth.current["v2c"] == 0
