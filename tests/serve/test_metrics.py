"""Log-bucket histograms, window series and SLO trackers: exact merge."""

import json
import random

import pytest

from repro.obs.hist import (
    SUBBUCKETS_PER_OCTAVE,
    LogBucketHistogram,
    WindowSeries,
    _bucket_edges,
    _bucket_key,
)
from repro.serve.slo import MIXED_SLO_MS, SLOTracker


class TestBucketing:
    def test_edges_cover_samples(self):
        for units in (1, 2, 3, 7, 8, 9, 100, 1023, 1024, 10**7):
            lo, hi = _bucket_edges(_bucket_key(units))
            assert lo <= units < hi

    def test_bucket_width_bounded(self):
        # Sub-octave buckets: width <= 1/SUBBUCKETS_PER_OCTAVE of the base.
        for units in (8, 100, 5000, 10**6):
            lo, hi = _bucket_edges(_bucket_key(units))
            assert (hi - lo) / lo <= 1.0 / SUBBUCKETS_PER_OCTAVE + 1e-12

    def test_zero_bucket(self):
        assert _bucket_key(0) == -1
        assert _bucket_edges(-1) == (0.0, 1.0)


class TestLogBucketHistogram:
    def test_mean_min_max(self):
        hist = LogBucketHistogram()
        for value in (1.0, 3.0, 5.0):
            hist.add(value)
        assert hist.count == 3
        assert hist.mean == 3.0
        assert hist.min == 1.0 and hist.max == 5.0

    def test_percentiles_monotone_and_bounded(self):
        hist = LogBucketHistogram()
        for value in range(1, 101):
            hist.add(float(value))
        p50, p90, p99 = (hist.percentile(p) for p in (50, 90, 99))
        assert hist.min <= p50 <= p90 <= p99 <= hist.max

    def test_percentiles_clamped_to_observed_range(self):
        hist = LogBucketHistogram()
        for value in (1.0, 2.0, 3.0):
            hist.add(value)
        assert hist.min == 1.0 and hist.max == 3.0
        assert 1.0 <= hist.percentile(0) <= hist.percentile(100) <= 3.0
        assert hist.percentile(100) == 3.0

    def test_percentile_tracks_distribution(self):
        hist = LogBucketHistogram()
        rng = random.Random(5)
        values = [rng.uniform(0.5, 20.0) for _ in range(5000)]
        for value in values:
            hist.add(value)
        values.sort()
        exact_p99 = values[int(0.99 * len(values))]
        # Sub-octave buckets are <= ~9% wide: p99 lands within 10%.
        assert abs(hist.percentile(99) - exact_p99) / exact_p99 < 0.10

    @pytest.mark.parametrize("splits", [2, 3, 7, 16])
    def test_merged_percentiles_identical_to_single(self, splits):
        rng = random.Random(11)
        values = [rng.expovariate(0.3) for _ in range(4000)]
        single = LogBucketHistogram()
        for value in values:
            single.add(value)
        parts = [LogBucketHistogram() for _ in range(splits)]
        for index, value in enumerate(values):
            parts[index % splits].add(value)
        merged = LogBucketHistogram()
        for part in parts:
            merged.merge(part)
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            single.to_dict(), sort_keys=True
        )

    def test_round_trip(self):
        hist = LogBucketHistogram()
        for value in (0.0001, 0.5, 4.2, 900.0):
            hist.add(value)
        clone = LogBucketHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()

    def test_empty(self):
        hist = LogBucketHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0


class TestWindowSeries:
    def test_counts_and_rates(self):
        series = WindowSeries(window_ms=2.0)
        for t in (0.0, 0.5, 1.9, 2.0, 5.9):
            series.add(t)
        assert series.counts == {0: 3, 1: 1, 2: 1}
        assert series.total == 5
        assert series.peak_rate == 1.5
        assert series.mean_rate(10.0) == 0.5

    def test_merge_requires_same_window(self):
        a = WindowSeries(window_ms=1.0)
        b = WindowSeries(window_ms=2.0)
        b.add(1.0)
        with pytest.raises(ValueError, match="window"):
            a.merge(b)

    def test_merge_sums_counts(self):
        a = WindowSeries()
        b = WindowSeries()
        a.add(0.5)
        b.add(0.7)
        b.add(3.1)
        a.merge(b)
        assert a.counts == {0: 2, 3: 1}


class TestSLOTracker:
    def test_classification_and_first_violation(self):
        slo = SLOTracker(slo_ms=5.0)
        slo.observe(3.0, completed_at_ms=1.0)
        slo.observe(9.0, completed_at_ms=8.0)
        slo.observe(7.0, completed_at_ms=4.0)
        assert slo.good == 1 and slo.violations == 2
        assert slo.first_violation_ms == 4.0
        assert slo.attainment == pytest.approx(1 / 3)
        assert slo.goodput_per_ms(10.0) == pytest.approx(0.1)

    def test_merge_exact(self):
        a = SLOTracker(slo_ms=5.0)
        b = SLOTracker(slo_ms=5.0)
        a.observe(2.0, 1.0)
        b.observe(8.0, 3.0)
        b.observe(6.0, 9.0)
        a.merge(b)
        assert a.good == 1 and a.violations == 2
        assert a.first_violation_ms == 3.0

    def test_merge_mixed_budgets_poisons_slo_ms(self):
        # Mixed-budget merges are legal (per-workload SLOs roll up into
        # one fleet report): counts sum exactly, but the budget field
        # becomes the MIXED_SLO_MS sentinel because no single number
        # describes the merged cells.
        a = SLOTracker(slo_ms=5.0)
        b = SLOTracker(slo_ms=7.0)
        a.observe(2.0, 1.0)
        b.observe(1.0, 1.0)
        b.observe(9.0, 2.0)
        a.merge(b)
        assert a.slo_ms == MIXED_SLO_MS
        assert a.good == 2 and a.violations == 1
        assert a.completed == 3

    def test_merge_adopts_budget_into_empty_default(self):
        a = SLOTracker(slo_ms=0.0)
        b = SLOTracker(slo_ms=7.0)
        b.observe(1.0, 1.0)
        a.merge(b)
        assert a.slo_ms == 7.0
        assert a.good == 1

    def test_merge_mixed_is_sticky(self):
        a = SLOTracker(slo_ms=5.0)
        b = SLOTracker(slo_ms=7.0)
        a.observe(2.0, 1.0)
        b.observe(1.0, 1.0)
        a.merge(b)
        c = SLOTracker(slo_ms=5.0)
        c.observe(3.0, 1.0)
        a.merge(c)
        assert a.slo_ms == MIXED_SLO_MS
        assert a.completed == 3

    def test_shed_accounting(self):
        slo = SLOTracker(slo_ms=5.0)
        slo.observe(2.0, 1.0)
        slo.observe(9.0, 2.0)
        slo.observe_shed()
        assert slo.shed == 1
        assert slo.offered == 3
        assert slo.attainment == pytest.approx(0.5)
        assert slo.offered_attainment == pytest.approx(1 / 3)

    def test_empty_tracker(self):
        slo = SLOTracker(slo_ms=5.0)
        assert slo.attainment == 1.0
        assert slo.first_violation_ms is None
        assert slo.goodput_per_ms(0.0) == 0.0
