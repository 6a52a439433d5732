"""RunReport derivations: histograms, SM activity, queue summaries."""

import pytest

from repro.core.models import KBKModel, MegakernelModel
from repro.gpu.specs import K20C
from repro.obs import RunReport, SMActivity
from repro.obs.events import (
    BlockAdmitted,
    BlockExited,
    ComputeSegment,
    QueuePop,
    QueuePush,
)
from repro.obs.report import _interval_union

from .conftest import observed_run


class TestIntervalUnion:
    def test_disjoint_and_overlapping(self):
        assert _interval_union([(0.0, 1.0), (2.0, 3.0)]) == 2.0
        assert _interval_union([(0.0, 2.0), (1.0, 3.0)]) == 3.0
        assert _interval_union([]) == 0.0

    def test_nested(self):
        assert _interval_union([(0.0, 10.0), (2.0, 3.0)]) == 10.0


class TestFromEvents:
    def synthetic_events(self):
        """One block on SM 0: resident [0,100], computing [10,60].

        Queue 's': pushed at t=0 and t=5, both popped at t=10.
        """
        return [
            QueuePush(t=0.0, stage="s", shard=0, depth=1),
            BlockAdmitted(t=0.0, sm_id=0, block_id=7, kernel="k", threads=128),
            QueuePush(t=5.0, stage="s", shard=0, depth=2),
            QueuePop(t=10.0, stage="s", shard=0, count=2, depth=0, stolen=False),
            ComputeSegment(
                t=60.0, sm_id=0, block_id=7, kernel="k", start=10.0, work=1.0
            ),
            BlockExited(t=100.0, sm_id=0, block_id=7, kernel="k"),
        ]

    def test_sm_breakdown(self):
        report = RunReport.from_events(
            self.synthetic_events(), K20C, elapsed_cycles=200.0, num_sms=1
        )
        activity = report.sm_activity[0]
        assert activity.busy_cycles == pytest.approx(50.0)
        # resident 100 cycles, computing 50 of them -> 50 stalled
        assert activity.stall_cycles == pytest.approx(50.0)
        assert activity.starved_cycles == pytest.approx(100.0)
        busy, stall, starved = activity.shares()
        assert busy + stall + starved == pytest.approx(1.0)

    def test_queue_latency_fifo_matching(self):
        report = RunReport.from_events(
            self.synthetic_events(), K20C, elapsed_cycles=200.0, num_sms=1
        )
        histogram = report.stage_latency["s"]
        # waits: 10-0 and 10-5 cycles, kept in milliseconds
        assert histogram.count == 2
        assert histogram.min == K20C.cycles_to_ms(5.0)
        assert histogram.max == K20C.cycles_to_ms(10.0)

    def test_depth_integral_time_weighted_mean(self):
        report = RunReport.from_events(
            self.synthetic_events(), K20C, elapsed_cycles=200.0, num_sms=1
        )
        summary = report.queue_depth["s"]
        assert summary.peak == 2
        # depth 1 over [0,5), 2 over [5,10), 0 after -> integral 15
        assert summary.depth_integral == pytest.approx(15.0)
        assert summary.mean_depth == pytest.approx(15.0 / 200.0)

    def test_counters(self):
        report = RunReport.from_events(
            self.synthetic_events(), K20C, elapsed_cycles=200.0, num_sms=1
        )
        c = report.counters
        assert c["queue_pushes"] == 2
        assert c["queue_pops"] == 1
        assert c["blocks_admitted"] == 1
        assert c["blocks_exited"] == 1
        assert c["compute_segments"] == 1


class TestRealRunReports:
    def test_megakernel_report_consistency(self):
        result, _observer = observed_run(MegakernelModel())
        report = result.report
        assert report is result.report is not None
        assert report.elapsed_ms == pytest.approx(result.time_ms, rel=1e-6)
        # every queued item was pushed and popped exactly once overall
        for stage in ("producer", "consumer"):
            summary = report.queue_depth[stage]
            assert summary.pushes == summary.items_popped
        # stage task stats mirror the run context
        assert report.stage_tasks["producer"].tasks == 40
        assert report.stage_tasks["consumer"].tasks == 40

    def test_kbk_report_has_syncs(self):
        result, _observer = observed_run(KBKModel())
        counters = result.report.counters
        assert counters["host_syncs"] >= 1
        assert counters["kernel_launches"] >= 2

    def test_sm_shares_cover_elapsed(self):
        result, _observer = observed_run(MegakernelModel())
        for activity in result.report.sm_activity.values():
            assert activity.elapsed == pytest.approx(
                result.report.elapsed_cycles
            )


class TestAggregate:
    def test_merge_sums_and_maxes(self):
        result_a, _ = observed_run(MegakernelModel())
        result_b, _ = observed_run(KBKModel())
        merged = RunReport.aggregate(
            [result_a.report, result_b.report], label="both"
        )
        assert merged.runs == 2
        assert merged.label == "both"
        assert merged.num_events == (
            result_a.report.num_events + result_b.report.num_events
        )
        assert merged.counters["queue_pushes"] == (
            result_a.report.counters["queue_pushes"]
            + result_b.report.counters["queue_pushes"]
        )
        # peak merges by max, checked on a queue-using model pair
        result_c, _ = observed_run(MegakernelModel(), n_items=10)
        pair = RunReport.aggregate([result_a.report, result_c.report])
        assert pair.queue_depth["producer"].peak == max(
            result_a.report.queue_depth["producer"].peak,
            result_c.report.queue_depth["producer"].peak,
        )

    def test_to_dict_round_trips_through_json(self):
        import json

        result, _ = observed_run(MegakernelModel())
        payload = json.loads(json.dumps(result.report.to_dict()))
        assert payload["counters"]["queue_pushes"] > 0
        assert "p99_ms" in payload["stage_latency"]["producer"]

    def test_summary_text_sections(self):
        result, _ = observed_run(MegakernelModel())
        text = result.report.summary_text()
        assert "per-stage task latency" in text
        assert "per-SM activity" in text
        assert "per-queue depth" in text


class TestSMActivity:
    def test_shares_of_zero_elapsed(self):
        assert SMActivity().shares() == (0.0, 0.0, 0.0)
