"""Report merging as a property: exact under any split.

Rolling up a sweep must not depend on how its reports are grouped:
merging any contiguous partition part by part and then folding the
parts gives the same report as one left fold.  Reports come from
:meth:`RunReport.from_events` over generated push/pop streams with
float timestamps, so every queue wait is an arbitrary float.  The
checks read only what every mergeable histogram offers (``count``,
``mean``, ``min``, ``max``, ``percentile``).
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gpu.specs import K20C
from repro.obs import RunReport
from repro.obs.events import QueuePop, QueuePush

STAGES = ("a", "b")
SHARDS = (0, 1)


def _report(events, elapsed_cycles):
    return RunReport.from_events(
        events, K20C, elapsed_cycles=elapsed_cycles, num_sms=0
    )


def _split(reports, cuts):
    """``reports`` cut before each index in ``cuts`` (contiguous parts)."""
    bounds = [0, *sorted(set(cuts) - {0, len(reports)}), len(reports)]
    return reports, [reports[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _single_waits(*waits):
    """One report per wait: one item pushed at 0, popped ``wait`` later."""
    return [
        _report(
            [
                QueuePush(t=0.0, stage="a", shard=0, depth=1),
                QueuePop(
                    t=wait, stage="a", shard=0, count=1, depth=0, stolen=False
                ),
            ],
            wait,
        )
        for wait in waits
    ]


@st.composite
def queue_reports(draw):
    """One report over a push/pop stream that pops only queued items."""
    # Tenths of a cycle: most such floats are inexact in binary, so
    # their sums depend on the order they are added in.
    times = sorted(
        draw(
            st.lists(
                st.integers(0, 10**7).map(lambda n: n / 10),
                min_size=1,
                max_size=30,
            )
        )
    )
    queued = {(stage, shard): 0 for stage in STAGES for shard in SHARDS}
    events = []
    for t in times:
        stage = draw(st.sampled_from(STAGES))
        shard = draw(st.sampled_from(SHARDS))
        depth = sum(queued[(stage, s)] for s in SHARDS)
        if queued[(stage, shard)] and draw(st.booleans()):
            count = draw(st.integers(1, queued[(stage, shard)]))
            queued[(stage, shard)] -= count
            events.append(
                QueuePop(
                    t=t,
                    stage=stage,
                    shard=shard,
                    count=count,
                    depth=depth - count,
                    stolen=draw(st.booleans()),
                )
            )
        else:
            queued[(stage, shard)] += 1
            events.append(
                QueuePush(t=t, stage=stage, shard=shard, depth=depth + 1)
            )
    return _report(events, times[-1])


@st.composite
def partitioned(draw):
    """Reports plus one contiguous partition of them."""
    reports = draw(st.lists(queue_reports(), min_size=1, max_size=8))
    cuts = draw(st.lists(st.integers(1, len(reports)), max_size=len(reports)))
    return _split(reports, cuts)


def _view(report: RunReport) -> dict:
    return {
        "stage_latency": {
            stage: (
                h.count,
                h.mean,
                h.min,
                h.max,
                h.percentile(50),
                h.percentile(90),
                h.percentile(99),
            )
            for stage, h in report.stage_latency.items()
        },
        "counters": {
            key: value
            for key, value in report.counters.items()
            if isinstance(value, int)
        },
        "peaks": {
            stage: summary.peak
            for stage, summary in report.queue_depth.items()
        },
    }


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(partitioned())
# A float sum of the waits differs here: (0.1 + 0.2) + 0.3 is not
# 0.1 + (0.2 + 0.3).
@example(_split(_single_waits(0.1, 0.2, 0.3), [1]))
def test_merge_is_exact_under_any_split(case):
    reports, parts = case
    folded = RunReport.aggregate(reports)
    by_parts = RunReport.aggregate(RunReport.aggregate(p) for p in parts)
    assert _view(by_parts) == _view(folded)
