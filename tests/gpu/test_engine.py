"""Unit tests for the discrete-event engine."""

import pytest

from repro.gpu.engine import Engine


@pytest.fixture
def aggressive_compaction(monkeypatch):
    """Force heap compaction on every cancellation."""
    monkeypatch.setattr(Engine, "COMPACT_MIN", 1)


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append("b"))
    engine.schedule(1.0, lambda: fired.append("a"))
    engine.schedule(9.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 9.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    fired = []
    for name in "abc":
        engine.schedule(3.0, lambda n=name: fired.append(n))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_cancelled_events_do_not_fire():
    engine = Engine()
    fired = []
    token = engine.schedule(1.0, lambda: fired.append("x"))
    engine.schedule(2.0, lambda: fired.append("y"))
    token.cancel()
    engine.run()
    assert fired == ["y"]


def test_negative_delay_clamps_to_now():
    engine = Engine()
    fired = []
    engine.schedule(2.0, lambda: engine.schedule(-5.0, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [2.0]


def test_nested_scheduling_from_callbacks():
    engine = Engine()
    fired = []

    def outer():
        fired.append(("outer", engine.now))
        engine.schedule(4.0, lambda: fired.append(("inner", engine.now)))

    engine.schedule(1.0, outer)
    engine.run()
    assert fired == [("outer", 1.0), ("inner", 5.0)]


def test_run_until_predicate_stops_early():
    engine = Engine()
    fired = []
    for t in (1.0, 2.0, 3.0):
        engine.schedule(t, lambda t=t: fired.append(t))
    engine.run(until=lambda: engine.now >= 2.0)
    assert fired == [1.0, 2.0]
    assert engine.peek_time() == 3.0


def test_runaway_guard_raises():
    engine = Engine()

    def loop():
        engine.schedule(1.0, loop)

    engine.schedule(0.0, loop)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=100)


def _three_events(extra: float | None = None) -> Engine:
    engine = Engine()
    for delay in (1.0, 2.0, 3.0):
        engine.schedule(delay, lambda: None)
    if extra is not None:
        engine.schedule(extra, lambda: None)
    return engine


def test_max_events_guard_needs_a_next_event():
    """The guard trips only when another live event would fire after the
    budget: an exactly spent budget, a cancelled leftover or a stop
    condition that holds all end the run quietly."""
    engine = _three_events()
    engine.run(max_events=3)
    assert engine.events_processed == 3
    assert engine.pending_events == 0

    engine = _three_events()
    engine.schedule(4.0, lambda: None).cancel()
    engine.run(max_events=3)
    assert engine.events_processed == 3

    engine = _three_events(extra=4.0)
    engine.run(max_events=3, deadline=2.5)
    engine = _three_events(extra=4.0)
    engine.run(max_events=3, until=lambda: engine.now >= 3.0)
    stop = [False]
    engine = _three_events(extra=4.0)
    engine.schedule(3.0, lambda: stop.__setitem__(0, True))
    engine.run(max_events=4, until_flag=stop)
    assert engine.events_processed == 4

    engine = _three_events(extra=4.0)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=3)


def test_peek_time_skips_cancelled():
    engine = Engine()
    token = engine.schedule(1.0, lambda: None)
    engine.schedule(7.0, lambda: None)
    token.cancel()
    assert engine.peek_time() == 7.0


def test_step_on_empty_heap_returns_false():
    engine = Engine()
    assert engine.step() is False
    assert engine.now == 0.0


def test_schedule_at_clamps_past_times():
    engine = Engine()
    fired = []
    engine.schedule(3.0, lambda: engine.schedule_at(1.0, lambda: fired.append(engine.now)))
    engine.run()
    assert fired == [3.0]  # cannot fire in the past


def test_schedule_many_matches_individual_schedules():
    """schedule_many fires in list order and interleaves with singles by seq."""
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append("a"))
    tokens = engine.schedule_many(1.0, [lambda n=n: fired.append(n) for n in "bcd"])
    engine.schedule(1.0, lambda: fired.append("e"))
    assert len(tokens) == 3
    tokens[1].cancel()
    engine.run()
    assert fired == ["a", "b", "d", "e"]


# ----------------------------------------------------------------------
# Tombstone accounting and compaction.
# ----------------------------------------------------------------------

def test_peak_pending_ignores_tombstones():
    """Cancelled events are heap garbage, not pending work: the peak must
    count live events only."""
    engine = Engine()
    tokens = [engine.schedule(1.0, lambda: None) for _ in range(10)]
    assert engine.peak_pending_events == 10
    for token in tokens[2:]:
        token.cancel()
    assert engine.pending_events == 2
    # Scheduling two more raises live count to 4 -- still below the peak
    # of 10, and the 8 tombstones must not inflate it.
    engine.schedule(1.0, lambda: None)
    engine.schedule(1.0, lambda: None)
    assert engine.peak_pending_events == 10
    engine.run()
    assert engine.events_processed == 4


def test_pending_events_tracks_cancellations():
    engine = Engine()
    a = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    a.cancel()
    assert engine.pending_events == 1
    a.cancel()  # double-cancel must not double-count
    assert engine.pending_events == 1


def test_cancel_then_drain_preserves_live_events(aggressive_compaction):
    """Compaction on cancel must not drop or reorder live events."""
    engine = Engine()
    fired = []
    keep = [engine.schedule(float(i), lambda i=i: fired.append(i)) for i in range(6)]
    doomed = [engine.schedule(float(i) + 0.5, lambda: fired.append("X")) for i in range(8)]
    for token in doomed:
        token.cancel()  # compaction fires once tombstones outnumber live
    assert engine.pending_events == 6
    assert len(engine._heap) == 6  # tombstones really were removed
    engine.run()
    assert fired == list(range(6))
    assert [t.cancelled for t in keep] == [False] * 6


def test_cancel_during_step_is_honoured(aggressive_compaction):
    """An event cancelled by an earlier event in the same run never fires,
    even when the cancellation compacts the heap mid-run."""
    engine = Engine()
    fired = []
    victim = engine.schedule(2.0, lambda: fired.append("victim"))
    engine.schedule(1.0, lambda: victim.cancel())
    engine.schedule(3.0, lambda: fired.append("after"))
    engine.run()
    assert fired == ["after"]


def test_late_cancel_after_fire_is_free():
    engine = Engine()
    fired = []
    token = engine.schedule(1.0, lambda: fired.append("x"))
    engine.run()
    token.cancel()  # already fired: must not corrupt tombstone accounting
    assert engine.pending_events == 0
    engine.schedule(1.0, lambda: fired.append("y"))
    engine.run()
    assert fired == ["x", "y"]


def test_max_events_guard_survives_compaction(aggressive_compaction):
    """Compaction must not reset the processed-event budget."""
    engine = Engine()

    def churn():
        # Re-arm one, cancel one: every iteration leaves a tombstone.
        engine.schedule(1.0, churn)
        engine.schedule(1.0, lambda: None).cancel()

    engine.schedule(0.0, churn)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=50)


def test_timer_rearm_replaces_previous_arming():
    engine = Engine()
    fired = []

    def on_tick():
        timer.fired()
        fired.append(engine.now)

    timer = engine.timer(on_tick)
    timer.arm(5.0)
    timer.arm(2.0)  # replaces the 5.0 arming
    assert timer.armed
    engine.run()
    assert fired == [2.0]
    assert not timer.armed


def test_timer_disarm_cancels():
    engine = Engine()
    fired = []
    timer = engine.timer(lambda: fired.append("tick"))
    timer.arm(1.0)
    timer.disarm()
    engine.run()
    assert fired == []
    assert not timer.armed
