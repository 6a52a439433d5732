"""Evaluation-harness tests: runner cells, table rendering, longest stage."""

import dataclasses
import pickle

import pytest

from repro.gpu.specs import GTX1080, K20C
from repro.harness.pool import run_suite
from repro.harness.runner import (
    aggregate_reports,
    longest_stage_ms,
    run_cell,
    run_versapipe,
    run_workload_models,
)
from repro.harness.tables import (
    format_table,
    ratio,
    render_figure11,
    render_table2,
)
from repro.harness.tracecache import TraceCache, workload_fingerprint
from repro.core.models import MegakernelModel
from repro.workloads import registry
from repro.workloads.registry import all_workloads, get_workload


@pytest.fixture(scope="module")
def reyes_cells():
    spec = get_workload("reyes")
    params = spec.quick_params()
    return {
        "reyes": run_workload_models("reyes", K20C, params=params)
    }


class TestRunner:
    def test_run_cell_checks_outputs(self):
        spec = get_workload("ldpc")
        cell = run_cell(
            spec, MegakernelModel(), K20C, spec.quick_params()
        )
        assert cell.workload == "ldpc"
        assert cell.model == "megakernel"
        assert cell.device == "K20c"
        assert cell.time_ms > 0

    def test_scaled_ms_applies_time_scale(self):
        from repro.workloads import cfd

        spec = get_workload("cfd")
        params = cfd.CFDParams(
            num_chunks=2, chunk_cells=64, outer_iterations=4
        )
        cell = run_cell(spec, MegakernelModel(), K20C, params)
        assert cell.scaled_ms == pytest.approx(
            cell.time_ms * cfd.time_scale(params)
        )

    def test_run_versapipe_picks_best_candidate(self):
        spec = get_workload("pyramid")
        params = spec.quick_params()
        vp = run_versapipe(spec, K20C, params)
        # It must never be slower than the plain described config would
        # imply, because the described config is one of its candidates.
        from repro.core.models import HybridModel

        pipeline = spec.build_pipeline(params)
        described = spec.versapipe_config(pipeline, K20C, params)
        described_cell = run_cell(
            spec, HybridModel(described), K20C, params
        )
        assert vp.time_ms <= described_cell.time_ms * 1.001

    def test_run_workload_models_columns(self, reyes_cells):
        columns = reyes_cells["reyes"]
        assert set(columns) == {"baseline", "megakernel", "versapipe"}
        assert columns["baseline"].model == "KBK"

    def test_device_label_propagates(self):
        spec = get_workload("ldpc")
        cell = run_cell(
            spec, MegakernelModel(), GTX1080, spec.quick_params()
        )
        assert cell.device == "GTX1080"


class TestObservedCells:
    def test_observe_attaches_labelled_report(self):
        spec = get_workload("ldpc")
        cell = run_cell(
            spec, MegakernelModel(), K20C, spec.quick_params(), observe=True
        )
        report = cell.result.report
        assert report is not None
        assert report.label == "ldpc/megakernel/K20c"
        assert report.num_events > 0
        assert report.elapsed_ms == pytest.approx(cell.time_ms, rel=1e-6)

    def test_observe_defaults_off(self):
        spec = get_workload("ldpc")
        cell = run_cell(spec, MegakernelModel(), K20C, spec.quick_params())
        assert cell.result.report is None

    def test_workload_models_observe_passthrough(self):
        cells = run_workload_models(
            "reyes", K20C, params=get_workload("reyes").quick_params(),
            observe=True,
        )
        for name, cell in cells.items():
            assert cell.result.report is not None, name

    def test_aggregate_reports_rolls_up_sweep(self):
        spec = get_workload("reyes")
        params = spec.quick_params()
        cells = list(
            run_workload_models("reyes", K20C, params=params,
                                observe=True).values()
        )
        sweep = aggregate_reports(cells, label="reyes-sweep")
        assert sweep.label == "reyes-sweep"
        assert sweep.runs == len(cells)
        assert sweep.num_events == sum(
            cell.result.report.num_events for cell in cells
        )

    def test_aggregate_skips_unobserved_cells(self):
        spec = get_workload("ldpc")
        observed = run_cell(
            spec, MegakernelModel(), K20C, spec.quick_params(), observe=True
        )
        plain = run_cell(
            spec, MegakernelModel(), K20C, spec.quick_params()
        )
        sweep = aggregate_reports([observed, plain])
        assert sweep.runs == 1


class _CountingCheck:
    """A spec's ``check_outputs``, counted per workload."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}

    def spec(self, spec):
        def check(params, outputs, _inner=spec.check_outputs):
            self.calls[spec.name] = self.calls.get(spec.name, 0) + 1
            _inner(params, outputs)

        return dataclasses.replace(spec, check_outputs=check)


class _LosingModel(MegakernelModel):
    """The megakernel, but the run loses or repeats one output."""

    def __init__(self, fault: str) -> None:
        super().__init__()
        self.fault = fault

    def run(self, *args, **kwargs):
        result = super().run(*args, **kwargs)
        if self.fault == "lose":
            result.outputs.pop()
        else:
            result.outputs.append(result.outputs[0])
        return result


class TestCheckOncePerRecording:
    def test_two_device_suite_checks_each_workload_once(self, monkeypatch):
        counter = _CountingCheck()
        for name, spec in all_workloads().items():
            monkeypatch.setitem(registry._REGISTRY, name, counter.spec(spec))
        result = run_suite(devices=("K20c", "GTX1080"), workers=1)
        assert len(result.cells) == 36
        assert counter.calls == {name: 1 for name in all_workloads()}

    @pytest.mark.parametrize("recorded_before", [False, True])
    @pytest.mark.parametrize(
        "fault, message",
        [("lose", "1 missing, 0 extra"), ("repeat", "0 missing, 1 extra")],
    )
    def test_replay_must_deliver_the_recorded_outputs(
        self, fault, message, recorded_before
    ):
        """Every replayed cell is held to the recording, the one that
        records it included."""
        spec = get_workload("reyes")
        params = spec.quick_params()
        cache = TraceCache()
        if recorded_before:
            run_cell(spec, MegakernelModel(), K20C, params, cache=cache)
        with pytest.raises(AssertionError) as raised:
            run_cell(spec, _LosingModel(fault), K20C, params, cache=cache)
        assert str(raised.value).startswith("reyes/megakernel: ")
        assert str(raised.value).endswith(message)

    def test_decoded_trace_is_checked_again(self):
        counter = _CountingCheck()
        spec = counter.spec(get_workload("ldpc"))
        params = spec.quick_params()
        cache = TraceCache()
        for _ in range(2):
            run_cell(spec, MegakernelModel(), K20C, params, cache=cache)
        assert counter.calls == {"ldpc": 1}
        key = workload_fingerprint(spec, params)
        decoded = pickle.loads(pickle.dumps(cache.get(key)))
        fresh = TraceCache()
        fresh.put(key, decoded)
        for _ in range(2):
            cell = run_cell(spec, MegakernelModel(), K20C, params, cache=fresh)
            assert cell.replayed
        assert counter.calls == {"ldpc": 2}

    def test_failed_check_is_not_remembered(self):
        spec = get_workload("ldpc")

        def reject(params, outputs):
            raise AssertionError("rejected")

        spec = dataclasses.replace(spec, check_outputs=reject)
        cache = TraceCache()
        for _ in range(2):
            with pytest.raises(AssertionError, match="rejected"):
                run_cell(
                    spec, MegakernelModel(), K20C, spec.quick_params(),
                    cache=cache,
                )

    def test_functional_runs_check_every_run(self):
        counter = _CountingCheck()
        spec = counter.spec(get_workload("ldpc"))
        for _ in range(2):
            run_cell(spec, MegakernelModel(), K20C, spec.quick_params())
        assert counter.calls == {"ldpc": 2}


class TestLongestStage:
    def test_longest_stage_below_pipeline_time(self):
        spec = get_workload("reyes")
        params = spec.quick_params()
        stage, stage_ms = longest_stage_ms(spec, K20C, params)
        assert stage in ("split", "dice", "shade")
        assert stage_ms > 0
        vp = run_versapipe(spec, K20C, params)
        assert stage_ms <= vp.time_ms * 1.2


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "222"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_ratio_rejects_zero(self):
        with pytest.raises(ValueError):
            ratio(1.0, 0.0)

    def test_render_table2_mentions_paper_numbers(self, reyes_cells):
        text = render_table2(reyes_cells, all_workloads())
        assert "reyes" in text
        assert "(15.6)" in text  # paper baseline
        assert "272B" in text

    def test_render_figure11_reports_speedups(self, reyes_cells):
        text = render_figure11(reyes_cells, all_workloads(), "K20c")
        assert "reyes" in text
        assert "x" in text
        assert "geomean" in text
