"""EventBus, event types, and the canonical recorder."""

from dataclasses import fields

from repro.core.models import MegakernelModel
from repro.obs import EVENT_TYPES, EventBus, EventRecorder
from repro.obs.events import ComputeSegment, QueuePop, QueuePush

from .conftest import observed_run


class TestEventBus:
    def test_fanout_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e)))
        bus.subscribe(lambda e: seen.append(("b", e)))
        bus.emit("x")
        assert seen == [("a", "x"), ("b", "x")]

    def test_no_subscribers_is_a_noop(self):
        EventBus().emit("ignored")  # must not raise


class TestEventTypes:
    def test_all_kinds_distinct(self):
        kinds = [cls.kind for cls in EVENT_TYPES]
        assert len(kinds) == len(set(kinds))

    def test_every_event_has_timestamp_first(self):
        for cls in EVENT_TYPES:
            assert fields(cls)[0].name == "t"

    def test_compute_segment_derived_fields(self):
        seg = ComputeSegment(
            t=110.0, sm_id=0, block_id=1, kernel="k", start=10.0, work=5.0
        )
        assert seg.end == 110.0
        assert seg.duration == 100.0

    def test_row_starts_with_kind(self):
        recorder = EventRecorder()
        recorder(QueuePush(t=1.0, stage="s", shard=0, depth=3))
        (row,) = recorder.canonical_rows()
        assert row == ("queue_push", 1.0, "s", 0, 3)


class TestRecorder:
    def test_records_emission_order(self):
        recorder = EventRecorder()
        bus = EventBus()
        bus.subscribe(recorder)
        a = QueuePush(t=1.0, stage="s", shard=0, depth=1)
        b = QueuePop(t=2.0, stage="s", shard=0, count=1, depth=0, stolen=False)
        bus.emit(a)
        bus.emit(b)
        assert recorder.events == [a, b]
        assert recorder.of_type(QueuePop) == [b]
        assert recorder.of_type(QueuePush) == [a]

    def test_canonical_rows_renumber_global_ids(self):
        """Block ids 1000/1007 must canonicalise to 0/1 by appearance."""
        recorder = EventRecorder()
        recorder(
            ComputeSegment(
                t=2.0, sm_id=0, block_id=1007, kernel="k", start=0.0, work=1.0
            )
        )
        recorder(
            ComputeSegment(
                t=3.0, sm_id=0, block_id=1000, kernel="k", start=2.0, work=1.0
            )
        )
        recorder(
            ComputeSegment(
                t=4.0, sm_id=0, block_id=1007, kernel="k", start=3.0, work=1.0
            )
        )
        rows = recorder.canonical_rows()
        block_ids = [row[3] for row in rows]  # (kind, t, sm_id, block_id, ..)
        assert block_ids == [0, 1, 0]

    def test_run_emits_every_core_kind(self):
        _result, observer = observed_run(MegakernelModel())
        kinds = {event.kind for event in observer.events}
        assert {
            "kernel_launch",
            "kernel_retire",
            "block_admit",
            "block_exit",
            "compute",
            "queue_push",
            "queue_pop",
        } <= kinds
