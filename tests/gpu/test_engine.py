"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.gpu.engine import Engine


@pytest.fixture
def aggressive_compaction(monkeypatch):
    """Force heap compaction on every cancellation."""
    monkeypatch.setattr(Engine, "COMPACT_MIN", 1)


def one_shot(engine, delay, fn):
    """A single-use Timer: the cancellable form of ``schedule_call``."""
    timer = engine.timer(fn)
    timer.arm(delay)
    return timer


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_call(5.0, lambda: fired.append("b"))
    engine.schedule_call(1.0, lambda: fired.append("a"))
    engine.schedule_call(9.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 9.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    fired = []
    for name in "abc":
        engine.schedule_call(3.0, lambda n=name: fired.append(n))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_cancelled_events_do_not_fire():
    engine = Engine()
    fired = []
    timer = one_shot(engine, 1.0, lambda: fired.append("x"))
    engine.schedule_call(2.0, lambda: fired.append("y"))
    timer.disarm()
    engine.run()
    assert fired == ["y"]


def test_negative_delay_clamps_to_now():
    engine = Engine()
    fired = []

    def late():
        engine.schedule_call(-5.0, lambda: fired.append(("call", engine.now)))
        one_shot(engine, -5.0, lambda: fired.append(("timer", engine.now)))

    engine.schedule_call(2.0, late)
    engine.run()
    assert fired == [("call", 2.0), ("timer", 2.0)]


def test_nested_scheduling_from_callbacks():
    engine = Engine()
    fired = []

    def outer():
        fired.append(("outer", engine.now))
        engine.schedule_call(4.0, lambda: fired.append(("inner", engine.now)))

    engine.schedule_call(1.0, outer)
    engine.run()
    assert fired == [("outer", 1.0), ("inner", 5.0)]


def test_run_until_predicate_stops_early():
    engine = Engine()
    fired = []
    for t in (1.0, 2.0, 3.0):
        engine.schedule_call(t, lambda t=t: fired.append(t))
    engine.run(until=lambda: engine.now >= 2.0)
    assert fired == [1.0, 2.0]
    assert engine.peek_time() == 3.0


def test_runaway_guard_raises():
    engine = Engine()

    def loop():
        engine.schedule_call(1.0, loop)

    engine.schedule_call(0.0, loop)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=100)


def _three_events(extra: float | None = None) -> Engine:
    engine = Engine()
    for delay in (1.0, 2.0, 3.0):
        engine.schedule_call(delay, lambda: None)
    if extra is not None:
        engine.schedule_call(extra, lambda: None)
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
    one_shot(engine, 4.0, lambda: None).disarm()
    engine.run(max_events=3)
    assert engine.events_processed == 3

    engine = _three_events(extra=4.0)
    engine.run(max_events=3, deadline=2.5)
    engine = _three_events(extra=4.0)
    engine.run(max_events=3, until=lambda: engine.now >= 3.0)
    # With a flag, ``until`` is asked only once the flag is raised: here
    # by the fourth event, so the spent budget asks it once and ends.
    asked: list[float] = []
    stop = [False]
    engine = _three_events(extra=4.0)
    engine.schedule_call(3.0, lambda: stop.__setitem__(0, True))
    engine.run(
        max_events=4,
        until=lambda: asked.append(engine.now) is None,
        until_flag=stop,
    )
    assert engine.events_processed == 4
    assert asked == [3.0]

    engine = _three_events(extra=4.0)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=3)


def test_peek_time_skips_cancelled():
    engine = Engine()
    timer = one_shot(engine, 1.0, lambda: None)
    engine.schedule_call(7.0, lambda: None)
    timer.disarm()
    assert engine.peek_time() == 7.0


def test_schedule_at_clamps_past_times():
    engine = Engine()
    fired = []
    engine.schedule_call(
        3.0, lambda: engine.schedule_call_at(1.0, lambda: fired.append(engine.now))
    )
    engine.run()
    assert fired == [3.0]  # cannot fire in the past


# ----------------------------------------------------------------------
# Tombstone accounting and compaction.
# ----------------------------------------------------------------------

def test_pending_events_tracks_cancellations():
    engine = Engine()
    a = one_shot(engine, 1.0, lambda: None)
    engine.schedule_call(2.0, lambda: None)
    assert engine.pending_events == 2
    a.disarm()
    assert engine.pending_events == 1
    a.disarm()  # double-cancel must not double-count
    assert engine.pending_events == 1


def test_cancel_then_drain_preserves_live_events(aggressive_compaction):
    """Compaction on cancel must not drop or reorder live events."""
    engine = Engine()
    fired = []
    keep = [one_shot(engine, float(i), lambda i=i: fired.append(i)) for i in range(6)]
    doomed = [
        one_shot(engine, float(i) + 0.5, lambda: fired.append("X")) for i in range(8)
    ]
    for timer in doomed:
        timer.disarm()  # compaction fires once tombstones outnumber live
    assert engine.pending_events == 6
    assert len(engine._heap) == 6  # tombstones really were removed
    assert [t.armed for t in keep] == [True] * 6
    engine.run()
    assert fired == list(range(6))


def test_cancel_during_step_is_honoured(aggressive_compaction):
    """An event cancelled by an earlier event in the same run never fires,
    even when the cancellation compacts the heap mid-run."""
    engine = Engine()
    fired = []
    victim = one_shot(engine, 2.0, lambda: fired.append("victim"))
    engine.schedule_call(1.0, victim.disarm)
    engine.schedule_call(3.0, lambda: fired.append("after"))
    engine.run()
    assert fired == ["after"]


def test_late_cancel_after_fire_is_free():
    engine = Engine()
    fired = []
    timer = one_shot(engine, 1.0, lambda: fired.append("x"))
    engine.run()
    timer.disarm()  # already fired: must not corrupt tombstone accounting
    assert engine.pending_events == 0
    engine.schedule_call(1.0, lambda: fired.append("y"))
    engine.run()
    assert fired == ["x", "y"]


def test_max_events_guard_survives_compaction(aggressive_compaction):
    """Compaction must not reset the processed-event budget."""
    engine = Engine()

    def churn():
        # Re-arm one, cancel one: every iteration leaves a tombstone.
        engine.schedule_call(1.0, churn)
        one_shot(engine, 1.0, lambda: None).disarm()

    engine.schedule_call(0.0, churn)
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_events=50)


@pytest.mark.parametrize("seed", range(4))
def test_tombstone_accounting_under_churn(seed, aggressive_compaction, monkeypatch):
    """Re-arm, disarm and cancel under forced compaction: after every
    operation and every fired event, ``pending_events`` equals the live
    count kept by this test and the tombstone count never goes negative.

    A cancel or re-arm must invalidate the old entry before it counts the
    tombstone: counted first, the compaction that the count triggers
    keeps the old entry (it still looks live) and forgets it.
    """
    compactions = []
    compact = Engine._compact
    monkeypatch.setattr(
        Engine, "_compact", lambda self: (compactions.append(1), compact(self))
    )
    rng = random.Random(seed)
    delays = (0.0, 0.5, 1.0, 1.0, 2.0, 5.0)
    engine = Engine()
    calls = [0]  # live fire-and-forget events
    shots = {}  # single-use timer -> still live
    armed = [False, False, False]

    def check():
        expected = calls[0] + sum(shots.values()) + sum(armed)
        assert engine.pending_events == expected
        assert engine._tombstones >= 0

    def on_call():
        calls[0] -= 1
        check()

    def make_tick(i):
        def tick():
            armed[i] = False
            check()
            if rng.random() < 0.3:
                timers[i].arm(rng.choice(delays))  # re-arm from own tick
                armed[i] = True
                check()

        return tick

    def on_shot(cell):
        shots[cell[0]] = False
        check()

    timers = [engine.timer(make_tick(i)) for i in range(len(armed))]
    # The shortest sequence that trips a count-before-invalidate order.
    timers[0].arm(5.0)
    timers[0].arm(2.0)
    armed[0] = True
    check()
    for _ in range(400):
        op = rng.random()
        i = rng.randrange(len(armed))
        if op < 0.25:
            timers[i].arm(rng.choice(delays))
            armed[i] = True
        elif op < 0.40:
            timers[i].disarm()
            armed[i] = False
        elif op < 0.60:
            cell = []
            shot = one_shot(engine, rng.choice(delays), lambda c=cell: on_shot(c))
            cell.append(shot)
            shots[shot] = True
        elif op < 0.80:
            if shots:
                shot = rng.choice(list(shots))  # may have fired already
                shot.disarm()
                shots[shot] = False
        elif op < 0.90:
            engine.schedule_call(rng.choice(delays), on_call)
            calls[0] += 1
        else:
            engine.run(deadline=engine.now + rng.choice(delays))
        check()
    engine.run()
    check()
    assert engine.pending_events == 0
    assert engine._tombstones == 0
    assert compactions


def test_timer_rearm_replaces_previous_arming():
    engine = Engine()
    fired = []

    def on_tick():
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
