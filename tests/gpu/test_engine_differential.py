"""Frozen event orders of the engine on adversarial random programs.

The golden schedule (:mod:`tests.gpu.test_determinism_golden`) pins the
engine's order on the canonical workloads; this suite pins it on
*adversarial random programs* that deliberately stress the paths the
workloads may not:

* random delays drawn from a pool with duplicates, so same-timestamp
  cohorts form constantly and tie-breaking by sequence number is load
  bearing;
* cancellations of arbitrary live events, before the run and from
  inside callbacks (including same-cohort victims);
* timer churn — arm / re-arm / disarm / rearm-from-tick;
* a same-timestamp burst of several hundred events;
* ``COMPACT_MIN = 1``, forcing heap compaction on every single
  cancellation.

The random program is generated by a seeded RNG that is consumed only
from inside fired callbacks, so the first misordered event snowballs
into a trace mismatch.

``golden/engine_orders.json`` holds, per program, the sha256 of its
fire trace, the trace length, ``events_processed`` and the final clock.
They were recorded while a second, array-clocked engine still had to
reproduce this engine's order event by event on every one of these
programs, so the digests carry that agreement forward.

Regenerate (only after an intentional change to the engine's order)
from the repo root::

    PYTHONPATH=src python -m tests.gpu.test_engine_differential
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.gpu.engine import Engine

_GOLDEN = Path(__file__).parent / "golden" / "engine_orders.json"

#: Duplicate entries make same-timestamp cohorts common; 0.0 exercises
#: zero-delay events.
_DELAY_POOL = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 3.75, 7.0)

_NUM_TIMERS = 4

#: Same-time events added after the random seed phase by the burst
#: programs.
_BURST = 612

_SEEDS = range(20)
_BURST_SEEDS = (0, 7)


class _RandomProgram:
    """One seeded random event program."""

    def __init__(self, engine, seed: int, burst: int = 0) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        self.burst = burst
        self.trace: list = []
        self.tokens: list = []
        self.labels = itertools.count()
        self.timers = [
            engine.timer(self._make_tick(i)) for i in range(_NUM_TIMERS)
        ]

    # -- callbacks -----------------------------------------------------
    def _make_tick(self, index: int):
        def tick() -> None:
            self.timers[index].fired()
            self.trace.append(("tick", index, self.engine.now))
            if self.rng.random() < 0.4:
                self.timers[index].arm(self.rng.choice(_DELAY_POOL))

        return tick

    def _make_cb(self, label: int, depth: int):
        def fire() -> None:
            self.trace.append((label, self.engine.now))
            if depth < 4:
                self.random_ops(depth + 1)

        return fire

    # -- random program construction ------------------------------------
    def random_ops(self, depth: int) -> None:
        rng = self.rng
        for _ in range(rng.randrange(0, 3)):
            choice = rng.random()
            if choice < 0.40:
                # Single schedule; keep the token half the time so it
                # becomes a future cancellation candidate.
                delay = rng.choice(_DELAY_POOL)
                cb = self._make_cb(next(self.labels), depth)
                if rng.random() < 0.5:
                    self.tokens.append(self.engine.schedule(delay, cb))
                else:
                    self.engine.schedule_call(delay, cb)
            elif choice < 0.55:
                # Cohort: several events at one timestamp, in list order.
                delay = rng.choice(_DELAY_POOL)
                cbs = [
                    self._make_cb(next(self.labels), depth)
                    for _ in range(rng.randrange(1, 4))
                ]
                self.tokens.extend(self.engine.schedule_many(delay, cbs))
            elif choice < 0.70:
                # Absolute-time schedule, sometimes in the past (clamps
                # to now).
                offset = rng.choice(_DELAY_POOL) - 1.0
                cb = self._make_cb(next(self.labels), depth)
                self.tokens.append(
                    self.engine.schedule_at(self.engine.now + offset, cb)
                )
            elif choice < 0.85:
                # Cancel an arbitrary live token (it may already have
                # fired — late cancels must be free).
                if self.tokens:
                    self.tokens.pop(
                        rng.randrange(len(self.tokens))
                    ).cancel()
            else:
                # Timer churn: re-arm replaces, disarm kills.
                timer = self.timers[rng.randrange(_NUM_TIMERS)]
                if timer.armed and rng.random() < 0.4:
                    timer.disarm()
                else:
                    timer.arm(rng.choice(_DELAY_POOL))

    def seed_phase(self) -> None:
        """Pre-run schedule mix, plus an optional same-time burst."""
        for _ in range(40):
            self.random_ops(0)
        for _ in range(self.burst):
            self.engine.schedule_call(
                5.0, self._make_cb(next(self.labels), 4)
            )

    def run(self) -> dict:
        self.seed_phase()
        self.engine.run(max_events=500_000)
        return {
            "trace_sha256": hashlib.sha256(
                json.dumps(self.trace, separators=(",", ":")).encode()
            ).hexdigest(),
            "trace_len": len(self.trace),
            "events_processed": self.engine.events_processed,
            "now": self.engine.now,
            "pending": self.engine.pending_events,
        }


def _outcome(seed: int, burst: int = 0) -> dict:
    return _RandomProgram(Engine(), seed, burst=burst).run()


def _frozen(outcome: dict) -> dict:
    """The golden entry of one outcome (every run must drain)."""
    assert outcome["pending"] == 0
    return {k: v for k, v in outcome.items() if k != "pending"}


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", _SEEDS)
def test_random_programs_equivalent(seed, golden):
    outcome = _frozen(_outcome(seed))
    assert outcome == golden["random"][str(seed)]
    # The random mix genuinely exercised the engine, not a near-empty
    # program.
    assert outcome["events_processed"] > 25


@pytest.mark.parametrize("seed", range(6))
def test_random_programs_equivalent_under_forced_compaction(
    seed, golden, monkeypatch
):
    """Compacting on every cancellation must stay invisible: the same
    frozen order as the default threshold."""
    monkeypatch.setattr(Engine, "COMPACT_MIN", 1)
    assert _frozen(_outcome(seed)) == golden["random"][str(seed)]


@pytest.mark.parametrize("seed", _BURST_SEEDS)
def test_random_programs_equivalent_across_calendar_growth(seed, golden):
    """A same-timestamp burst of several hundred events lands mid-heap
    (it once forced the array calendar to grow)."""
    outcome = _frozen(_outcome(seed, burst=_BURST))
    assert outcome == golden["burst"][str(seed)]
    assert outcome["events_processed"] > _BURST


def test_same_timestamp_cohort_interleaves_with_timer_ticks():
    """Scheduled events and timer ticks at one timestamp fire in arming
    order (global seq), not grouped by source."""
    engine = Engine()
    fired = []
    t0 = engine.timer(lambda: fired.append("timer0"))
    t1 = engine.timer(lambda: fired.append("timer1"))
    engine.schedule(2.0, lambda: fired.append("cal-a"))
    t0.arm(2.0)
    engine.schedule(2.0, lambda: fired.append("cal-b"))
    t1.arm(2.0)
    engine.schedule(1.0, lambda: t1.disarm())
    engine.run()
    assert fired == ["cal-a", "timer0", "cal-b"]
    assert engine.events_processed == 4


def _record() -> dict:
    return {
        "random": {str(s): _frozen(_outcome(s)) for s in _SEEDS},
        "burst": {
            str(s): _frozen(_outcome(s, burst=_BURST)) for s in _BURST_SEEDS
        },
    }


if __name__ == "__main__":
    _GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")
