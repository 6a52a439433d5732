"""The load-adaptive serving control plane: admission, batching, re-tune.

Unit tests pin the controller pieces (spec parsing, shed decisions,
batch-size targets, hysteresis windows) and the run-context hooks they
ride on (``release_arrivals``, ``batch_governor``); the end-to-end tests
pin the adaptive driver contracts from the ROADMAP serving item — exact
shed accounting, byte-identical reports for any worker count, exactly
one re-tune per sustained load shift, and adaptive goodput at least
matching the static plan on the same schedule.
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
    RetuneController,
    ServeController,
    SloEwmaAdmission,
    parse_admission_spec,
)
from repro.workloads.registry import get_workload


def _payload_json(report):
    return json.dumps(report.payload(), sort_keys=True)


def _shift_trace(tmp_path, name="shift.txt"):
    """A deterministic two-phase schedule: 1 req/ms for 10 ms, then
    8 req/ms for 6 ms — a clean x8 sustained rate shift."""
    offsets = [0.5 + i for i in range(10)]
    offsets += [10.0 + i * 0.125 for i in range(48)]
    path = tmp_path / name
    path.write_text("\n".join(f"{t:g}" for t in offsets))
    return str(path)


@pytest.fixture(scope="module")
def shift_trace(tmp_path_factory):
    """One shared trace file: its path lands in report payloads, so the
    byte-identity tests need the same file across parametrized runs."""
    return _shift_trace(tmp_path_factory.mktemp("arrivals"))


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
        return ServeController(
            admission=admission, slo_ms=slo_ms, window_ms=1.0
        )

    def test_none_never_sheds(self):
        controller = self._controller("none")
        assert not controller.should_shed()
        assert controller.shed == 0

    def test_drop_tail_sheds_at_cap(self):
        controller = self._controller("drop-tail:3")
        controller._backlog = {"a": 1, "b": 1}
        assert not controller.should_shed()
        controller._backlog["b"] = 2
        assert controller.should_shed()
        assert controller.shed == 1

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
        batched = ServeController(
            admission="none", slo_ms=5.0, window_ms=1.0, max_batch=4
        )
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
            admission="none", slo_ms=10.0, window_ms=1.0, max_batch=64
        )
        controller._backlog = {"s": 10**6}
        assert controller.batch_limit("s", 4) == 4
        controller._backlog = {"s": 0}
        assert controller.batch_limit("s", 64) == 1


class TestRetuneController:
    def _feed_window(self, rc, start_ms, rate_per_ms, window_ms=1.0):
        for i in range(int(rate_per_ms * window_ms)):
            rc.note(start_ms + i / max(rate_per_ms, 1.0), arrival=True)

    def test_warmup_then_anchor(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        for w in range(4):
            self._feed_window(rc, float(w), 4.0)
        rc.note(4.5, arrival=True)
        assert rc.rate_anchor == pytest.approx(4.0)
        assert rc.pending is None

    def test_idle_warmup_anchors_at_first_loaded_window(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        # Five empty windows roll by before any load shows up; the
        # leading idle must not make the steady 4/ms look like a shift.
        for w in range(5, 10):
            self._feed_window(rc, float(w), 4.0)
        rc.note(10.5, arrival=True)
        assert rc.pending is None
        assert rc.rate_anchor == pytest.approx(4.0)

    def test_arms_on_rate_upshift(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        for w in range(4):
            self._feed_window(rc, float(w), 2.0)
        for w in range(4, 8):
            self._feed_window(rc, float(w), 16.0)
        rc.note(8.5, arrival=True)
        assert rc.pending is not None
        assert "arrival-rate" in rc.pending

    def test_arms_on_rate_downshift(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        for w in range(4):
            self._feed_window(rc, float(w), 16.0)
        for w in range(4, 10):
            self._feed_window(rc, float(w), 2.0)
        rc.note(10.5, arrival=True)
        assert rc.pending is not None

    def test_sub_ratio_wobble_stays_quiet(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        rates = [4.0, 5.0, 3.0, 5.0, 4.0, 6.0, 4.0, 5.0]
        for w, rate in enumerate(rates):
            self._feed_window(rc, float(w), rate)
        rc.note(float(len(rates)) + 0.5, arrival=True)
        assert rc.pending is None

    def test_attainment_collapse_arms(self):
        rc = RetuneController(window_ms=1.0, ratio=100.0)
        for w in range(4):
            self._feed_window(rc, float(w), 4.0)
            for i in range(4):
                rc.note(w + 0.2 + i * 0.1, completion=True, good=True)
        for w in range(4, 10):
            self._feed_window(rc, float(w), 4.0)
            for i in range(4):
                rc.note(w + 0.2 + i * 0.1, completion=True, good=False)
        rc.note(10.5, arrival=True)
        assert rc.pending is not None
        assert "attainment" in rc.pending

    def test_rearm_gives_exactly_one_fire_per_shift(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        fires = []
        t = 0.0
        for phase, rate in enumerate((2.0, 16.0, 16.0, 16.0)):
            for w in range(4):
                self._feed_window(rc, t, rate)
                t += 1.0
                if rc.pending is not None:
                    fires.append(rc.pending)
                    rc.rearm(t)
        # One sustained shift (2 -> 16) == one fire, even though the
        # high rate persists for three more phases.
        assert len(fires) == 1

    def test_rearm_resets_measurement(self):
        rc = RetuneController(window_ms=1.0, ratio=2.0)
        for w in range(8):
            self._feed_window(rc, float(w), 16.0)
        rc.rearm(8.0)
        assert rc.pending is None
        assert rc.rate_anchor is None
        assert rc.windows == 0
        assert rc.rate_ewma.value is None


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
        """A static cell is the admit-everything episode loop: its
        payload equals that of an admission policy that never sheds at
        this load, ``sheds`` window included."""
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
            ctx.queue_set.push(stage, value, None)

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
            qs.push("v2c", value, None)
        assert len(qs.drain("v2c", 3)) == 3
        assert qs.backlog("v2c") == 2
        assert len(qs.drain("v2c")) == 2
        assert qs.backlog("v2c") == 0


class TestRetuneServe:
    def test_retune_fires_exactly_once_per_shift(self, shift_trace):
        trace = shift_trace
        cfg = _config(
            arrival_spec=f"trace:{trace}",
            duration_ms=16.0,
            slo_ms=10.0,
            window_ms=2.0,
            retune=2.0,
            retune_budget=8,
        )
        report = serve_workload(cfg)
        assert len(report.retunes) == 1
        swap = report.retunes[0]
        assert "arrival-rate" in swap["reason"]
        assert swap["old_plan"] and swap["new_plan"]
        assert report.completed == report.requests
        assert report.payload()["retunes"] == report.retunes

    def test_retune_emits_obs_event(self, shift_trace):
        trace = shift_trace
        cfg = _config(
            arrival_spec=f"trace:{trace}",
            duration_ms=16.0,
            slo_ms=10.0,
            window_ms=2.0,
            retune=2.0,
            retune_budget=8,
        )
        observer = Observer()
        report = serve_workload(cfg, observer=observer)
        swaps = [e for e in observer.events if e.kind == "serve_retune"]
        assert len(swaps) == len(report.retunes) == 1
        assert swaps[0].reason == report.retunes[0]["reason"]
        assert swaps[0].new_plan == report.retunes[0]["new_plan"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_swapped_plan_byte_identical_across_workers(
        self, shift_trace, workers
    ):
        trace = shift_trace
        configs = [
            _config(
                arrival_spec=f"trace:{trace}",
                duration_ms=16.0,
                slo_ms=10.0,
                window_ms=2.0,
                retune=2.0,
                retune_budget=8,
                seed=seed,
            )
            for seed in (0, 1, 2, 3)
        ]
        reports = run_serve_cells(configs, workers=workers)
        key = "|".join(_payload_json(r) for r in reports)
        if not hasattr(type(self), "_plan_baseline"):
            type(self)._plan_baseline = key
        assert key == type(self)._plan_baseline
        for report in reports:
            assert len(report.retunes) == 1

    def test_midrun_retune_goodput_beats_static(self, shift_trace):
        trace = shift_trace
        base = dict(
            arrival_spec=f"trace:{trace}",
            duration_ms=16.0,
            slo_ms=10.0,
            window_ms=2.0,
        )
        static = serve_workload(_config(**base))
        retuned = serve_workload(
            _config(**base, retune=2.0, retune_budget=8)
        )
        assert len(retuned.retunes) == 1
        assert retuned.goodput_per_ms >= static.goodput_per_ms

    def test_steady_load_never_retunes(self):
        report = serve_workload(
            _config(arrival_spec="poisson:1.0", retune=3.0,
                    retune_budget=8, window_ms=2.0)
        )
        assert report.retunes == []
        assert report.completed == report.requests
