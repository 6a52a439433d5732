"""Serving harness: sharded cells, exact merges, worker byte-identity."""

import json

import pytest

from repro.serve import (
    ServeConfig,
    merge_serve_reports,
    plan_serve,
    run_serve_cells,
    serve_workload,
)


def _payloads(reports):
    return [json.dumps(r.payload(), sort_keys=True) for r in reports]


class TestShardedServing:
    def test_plan_order_is_stable(self):
        plan = plan_serve(
            ["reyes", "ldpc"], "poisson:0.5", 5.0, 5.0, seed=1
        )
        assert [c.workload for c in plan] == ["reyes", "ldpc"]
        assert all(isinstance(c, ServeConfig) for c in plan)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_byte_identical(self, workers):
        plan = plan_serve(
            ["ldpc", "reyes", "face_detection"],
            "poisson:0.5", 6.0, 5.0, seed=9,
        )
        serial = run_serve_cells(plan, workers=1)
        parallel = run_serve_cells(plan, workers=workers)
        assert _payloads(serial) == _payloads(parallel)
        merged_serial = merge_serve_reports(serial)
        merged_parallel = merge_serve_reports(parallel)
        assert json.dumps(
            merged_serial.payload(), sort_keys=True
        ) == json.dumps(merged_parallel.payload(), sort_keys=True)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_serve_cells([], workers=0)


class TestMergeServeReports:
    def test_merge_preserves_totals(self):
        plan = plan_serve(["ldpc", "reyes"], "poisson:0.5", 5.0, 5.0)
        reports = [serve_workload(config) for config in plan]
        merged = merge_serve_reports(reports)
        assert merged.requests == sum(r.requests for r in reports)
        assert merged.completed == sum(r.completed for r in reports)
        assert merged.latency.count == sum(
            r.latency.count for r in reports
        )
        assert merged.slo.good == sum(r.slo.good for r in reports)
        assert merged.workload == "mixed"
        assert merged.duration_ms == sum(r.duration_ms for r in reports)

    def test_many_copies_merge_exactly(self):
        # Nineteen copies of one report fold into one: counts scale,
        # percentiles stay.
        base = serve_workload(
            ServeConfig(
                workload="ldpc", arrival_spec="poisson:0.5",
                duration_ms=4.0, slo_ms=5.0,
            )
        )
        count = 19
        reports = [base for _ in range(count)]
        merged = merge_serve_reports(reports)
        assert merged.requests == base.requests * count
        assert merged.latency.count == base.latency.count * count
        # Percentiles of N identical merged copies equal the single's.
        for p in (50, 99, 99.9):
            assert merged.latency.percentile(p) == base.latency.percentile(p)

    def test_merge_carries_slo_rollup(self):
        # The merged report must expose the cross-cell SLO view: the
        # attainment over every completed request and goodput over the
        # summed cell durations (this is what BENCH_serve.json's
        # ``merged`` leaf records).
        plan = plan_serve(
            ["ldpc", "reyes"], "poisson:0.5", 5.0, 5.0, seed=3
        )
        reports = [serve_workload(config) for config in plan]
        merged = merge_serve_reports(reports)
        good = sum(r.slo.good for r in reports)
        completed = sum(r.slo.completed for r in reports)
        assert merged.slo.slo_ms == reports[0].slo.slo_ms
        assert merged.slo.attainment == pytest.approx(good / completed)
        assert merged.goodput_per_ms == pytest.approx(
            good / sum(r.duration_ms for r in reports)
        )

    def test_merge_adopts_budget_from_empty_cell(self):
        # A cell that completed nothing still carries a real budget; a
        # default-constructed accumulator must adopt it so later merges
        # judge attainment against the right SLO.
        from repro.serve.report import ServeReport
        from repro.serve.slo import SLOTracker

        empty = ServeReport(duration_ms=5.0, slo=SLOTracker(slo_ms=7.5))
        acc = ServeReport()
        acc.merge(empty)
        assert acc.slo.slo_ms == 7.5

    def test_merge_empty(self):
        merged = merge_serve_reports([])
        assert merged.requests == 0
        assert merged.latency.count == 0
