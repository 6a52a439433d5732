"""Streaming, mergeable metrics: log-bucket histograms and fixed-window
rate series.

:class:`LogBucketHistogram` is the one latency histogram: batch reports
keep their per-stage queue waits in it (:mod:`repro.obs.report`) and
serving reports their end-to-end latencies and per-stage waits and
service times (:mod:`repro.serve.report`).  It quantises each sample to
an integer number of microseconds and buckets it logarithmically with
:data:`SUBBUCKETS_PER_OCTAVE` linear sub-buckets per power of two, so
every bucket spans at most ``2**(1/8) - 1`` (about 9 %) of its value —
the sub-octave resolution tail accounting (p99/p999 under an SLO)
needs.

Everything here is **deterministic and exactly mergeable**:

* bucketing is pure integer arithmetic (``bit_length`` + shifts), never
  ``math.log`` — two hosts bucket every float identically;
* merging sums bucket counts, so percentiles computed from N merged
  partial histograms are *identical* to the single-histogram path (the
  serving harness's byte-identity contract for any ``--workers``);
* :class:`WindowSeries` counts events into fixed-width windows keyed by
  an integer index — merging sums the counts per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Linear sub-buckets per power-of-two octave (bucket width <= ~9 %).
SUBBUCKETS_PER_OCTAVE = 8

#: Samples quantise to this many integer units per millisecond (1 us).
UNITS_PER_MS = 1000

#: Bucket key of the ``[0, 1)``-microsecond bucket.
ZERO_KEY = -1


def _bucket_key(units: int) -> int:
    """Bucket key of a non-negative integer sample (in microseconds)."""
    if units < 1:
        return ZERO_KEY
    exponent = units.bit_length() - 1
    sub = ((units - (1 << exponent)) * SUBBUCKETS_PER_OCTAVE) >> exponent
    return exponent * SUBBUCKETS_PER_OCTAVE + sub


def _bucket_edges(key: int) -> tuple[float, float]:
    """``[lo, hi)`` of one bucket, in the integer microsecond domain."""
    if key == ZERO_KEY:
        return 0.0, 1.0
    exponent, sub = divmod(key, SUBBUCKETS_PER_OCTAVE)
    base = 1 << exponent
    lo = base + base * sub / SUBBUCKETS_PER_OCTAVE
    hi = base + base * (sub + 1) / SUBBUCKETS_PER_OCTAVE
    return lo, hi


@dataclass
class LogBucketHistogram:
    """A mergeable log-bucket histogram over millisecond samples.

    Samples are clamped to >= 0 and quantised to integer microseconds;
    percentiles interpolate linearly inside a bucket and clamp to the
    exact observed ``[min, max]``, so the tails never over-report.
    """

    count: int = 0
    #: Sum of the quantised samples, in integer microseconds — an int so
    #: merging is associative and the mean is split-order invariant.
    total_units: int = 0
    min: float = 0.0
    max: float = 0.0
    buckets: dict[int, int] = field(default_factory=dict)

    def add(self, value_ms: float) -> None:
        value_ms = max(0.0, value_ms)
        if self.count == 0 or value_ms < self.min:
            self.min = value_ms
        if value_ms > self.max:
            self.max = value_ms
        self.count += 1
        units = int(value_ms * UNITS_PER_MS)
        self.total_units += units
        key = _bucket_key(units)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        return self.total_units / (self.count * UNITS_PER_MS)

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100], in milliseconds.

        Deterministic: depends only on the bucket counts and the exact
        min/max, all of which merge exactly — so a merged histogram
        reports the same percentiles as the unsplit one.
        """
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for key in sorted(self.buckets):
            n = self.buckets[key]
            if seen + n >= rank:
                lo, hi = _bucket_edges(key)
                frac = (rank - seen) / n
                value = (lo + frac * (hi - lo)) / UNITS_PER_MS
                return min(self.max, max(self.min, value))
            seen += n
        return self.max

    def merge(self, other: "LogBucketHistogram") -> None:
        if other.count == 0:
            return
        if self.count == 0 or other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        self.total_units += other.total_units
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_units": self.total_units,
            "mean_ms": self.mean,
            "min_ms": self.min,
            "max_ms": self.max,
            "p50_ms": self.percentile(50),
            "p99_ms": self.percentile(99),
            "p999_ms": self.percentile(99.9),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogBucketHistogram":
        return cls(
            count=data["count"],
            total_units=data["total_units"],
            min=data["min_ms"],
            max=data["max_ms"],
            buckets={int(k): v for k, v in data["buckets"].items()},
        )


@dataclass
class WindowSeries:
    """Event counts in fixed ``window_ms``-wide time windows.

    ``add(t_ms)`` drops the event into window ``floor(t_ms / window_ms)``;
    rates are counts divided by the window width.  Merging sums counts
    per window index, so a merged series is exact.
    """

    window_ms: float = 1.0
    counts: dict[int, int] = field(default_factory=dict)

    def add(self, t_ms: float) -> None:
        index = int(t_ms / self.window_ms) if t_ms > 0 else 0
        self.counts[index] = self.counts.get(index, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def peak_rate(self) -> float:
        """Highest per-window rate, in events per millisecond."""
        if not self.counts:
            return 0.0
        return max(self.counts.values()) / self.window_ms

    def mean_rate(self, span_ms: float) -> float:
        """Average rate over ``span_ms`` (events per millisecond)."""
        if span_ms <= 0:
            return 0.0
        return self.total / span_ms

    def merge(self, other: "WindowSeries") -> None:
        if other.window_ms != self.window_ms and other.counts:
            raise ValueError(
                f"cannot merge WindowSeries with window {other.window_ms} "
                f"ms into one with window {self.window_ms} ms"
            )
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n

    def to_dict(self) -> dict:
        return {
            "window_ms": self.window_ms,
            "total": self.total,
            "peak_rate_per_ms": self.peak_rate,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }
