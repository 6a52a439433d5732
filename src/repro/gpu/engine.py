"""The deterministic discrete-event engine.

The whole simulator runs on a single event calendar.  Time is measured in
*cycles* of the simulated device's core clock; the device facade converts to
micro/milliseconds for reporting.  Determinism is guaranteed by breaking
time ties with a monotonically increasing sequence number, so repeated runs
of the same program produce bit-identical schedules.

:class:`Engine` is a ``heapq`` of ``(time, seq, fn, arg, owner)`` entries,
popped one event at a time; an event runs as ``fn()``, or as ``fn(arg)``
when scheduled with an argument, so it needs no closure.  ``owner`` is
``None`` for the fire-and-forget ``schedule_call``/``schedule_call_at``,
else the :class:`Timer` that can cancel or re-arm the entry.
An entry is live iff ``owner is None or owner._seq == seq``: an owner
holds the sequence number of its one live entry, or ``None``, and the
engine clears it before calling ``fn``, so a timer re-armed from its own
tick leaves no tombstone (a dead entry, skipped when it surfaces).
Tombstones are counted exactly, and the heap is compacted once they both
reach ``COMPACT_MIN`` and outnumber live events.  A cancel or re-arm first
invalidates the old entry, then counts its tombstone (which may compact
the heap), then pushes the new entry: counted first, the old entry would
survive compaction uncounted.  ``(time, seq)`` is a total order, so
compaction cannot change the order events fire in
(``tests/gpu/test_determinism_golden.py`` and the frozen random programs
of ``tests/gpu/test_engine_differential.py`` pin this).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class Timer:
    """The engine's one cancellable event: a re-armable timer.

    ``arm(delay)`` replaces any previous arming (the old heap entry
    becomes a tombstone); ``disarm()`` cancels without re-arming.  One
    ``Timer`` object serves an unbounded number of re-schedules, so call
    sites like ``SM._reschedule`` allocate nothing per residency change;
    a timer armed once is a single cancellable event.  Arming takes one
    sequence number, exactly as :meth:`Engine.schedule_call` does, so
    timers and fire-and-forget events at one time fire in the order they
    were scheduled.
    """

    __slots__ = ("_engine", "_fn", "_seq")

    def __init__(self, engine: Engine, fn: Callable[[], None]) -> None:
        self._engine = engine
        self._fn = fn
        self._seq: int | None = None

    @property
    def armed(self) -> bool:
        return self._seq is not None

    def arm(self, delay: float) -> None:
        """Schedule the callback ``delay`` cycles from now, replacing any
        previous arming."""
        engine = self._engine
        if self._seq is not None:
            self._seq = None
            engine._note_tombstone()
        if delay < 0:
            delay = 0.0
        seq = next(engine._seq)
        self._seq = seq
        heapq.heappush(
            engine._heap, (engine.now + delay, seq, self._fn, _NO_ARG, self)
        )

    def disarm(self) -> None:
        if self._seq is not None:
            self._seq = None
            self._engine._note_tombstone()


#: One heap entry (see the module docstring).
_Entry = tuple[float, int, Callable, object, Timer | None]


class Engine:
    """A minimal deterministic event heap."""

    #: Compaction triggers when at least this many tombstones accumulate
    #: *and* they outnumber live events.  Class attribute so tests can
    #: force aggressive compaction (``Engine.COMPACT_MIN = 1``) and prove
    #: schedules are unchanged.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[_Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: Dead entries still buried in the heap.
        self._tombstones = 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (not cancelled, not yet fired) events currently scheduled."""
        return len(self._heap) - self._tombstones

    def schedule_call(self, delay: float, fn: Callable, arg: object = _NO_ARG) -> None:
        """Fire-and-forget schedule: run ``fn(arg)`` (or ``fn()`` when no
        argument is given) ``delay`` cycles from now.

        Consumes exactly one sequence number, like :meth:`Timer.arm`, but
        the event cannot be cancelled.
        """
        if delay < 0:
            delay = 0.0
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), fn, arg, None)
        )

    def schedule_call_at(
        self, time: float, fn: Callable, arg: object = _NO_ARG
    ) -> None:
        """Fire-and-forget schedule at an absolute time (clamped to >= now)."""
        self.schedule_call(max(0.0, time - self.now), fn, arg)

    def timer(self, fn: Callable[[], None]) -> Timer:
        """A reusable :class:`Timer` bound to ``fn`` (see its docstring)."""
        return Timer(self, fn)

    # ------------------------------------------------------------------
    # Tombstone accounting.
    # ------------------------------------------------------------------
    def _note_tombstone(self) -> None:
        """Count one entry its owner has just invalidated (see above)."""
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN
            and self._tombstones > len(self._heap) - self._tombstones
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify the survivors.

        ``(time, seq)`` is a total order (seq is unique), so rebuilding
        the heap cannot change the order live events fire in.
        """
        self._heap = [
            entry
            for entry in self._heap
            if (owner := entry[4]) is None or owner._seq == entry[1]
        ]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def peek_time(self) -> float | None:
        """Time of the next live event, or None."""
        heap = self._heap
        while heap:
            time, seq, _fn, _arg, owner = heap[0]
            if owner is None or owner._seq == seq:
                return time
            heapq.heappop(heap)
            self._tombstones -= 1
        return None

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_events: int = 50_000_000,
        deadline: float | None = None,
        until_flag: list | None = None,
    ) -> None:
        """Run events until the heap drains, ``until()`` becomes true, or
        the clock passes ``deadline``.

        ``deadline`` stops the run once ``now`` has advanced *past* the
        given cycle count — checked natively here because the tuner's
        replay loop runs millions of events under a shrinking deadline,
        and folding the comparison into a per-event ``until`` closure
        doubles the per-event dispatch cost.  ``until_flag`` spares the
        per-event ``until`` call for callers that know when their stop
        condition may have become true: a one-element list, tested per
        event as a plain index, and given only with ``until``.  When it
        is raised, ``until()`` confirms: true stops the run, false lowers
        the flag and the run goes on.  The caller must raise the flag
        whenever ``until()`` may have turned true (the device's
        ``run_engine`` keeps this protocol).  ``max_events`` is
        a runaway guard: if another live event would still fire after
        that many, the run raises ``RuntimeError`` rather than hanging a
        test run forever.
        """
        pop = heapq.heappop
        no_arg = _NO_ARG
        for _ in range(max_events):
            if deadline is not None and self.now > deadline:
                return
            if until_flag is not None:
                if until_flag[0]:
                    if until():
                        return
                    until_flag[0] = False
            elif until is not None and until():
                return
            # ``fn`` may trigger ``_compact``, which rebinds
            # ``self._heap`` — re-fetch it every iteration.
            heap = self._heap
            while heap:
                time, seq, fn, arg, owner = pop(heap)
                if owner is not None:
                    if owner._seq != seq:
                        self._tombstones -= 1
                        continue
                    owner._seq = None  # fired: a re-arm leaves no tombstone
                assert time >= self.now, "event scheduled in the past"
                self.now = time
                self._events_processed += 1
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                break
            else:
                return
        # The budget is spent: trip the guard only if the run would go on.
        if deadline is not None and self.now > deadline:
            return
        if until is not None and until():
            return
        if self.peek_time() is None:
            return
        raise RuntimeError(
            f"engine exceeded {max_events} events; likely a scheduling livelock"
        )


class VectorEngine(Engine):
    """The scalar :class:`Engine` under the name of a removed second core.

    An array-clocked engine of this name was once the default.  The
    repository benchmark's span recorder (``perfbench/spans.py``) still
    wraps ``VectorEngine.run`` by name, so the name stays until that
    recorder drops it.  Nothing in the package constructs this class.  It
    is a subclass rather than an alias so that wrapping both names wraps
    ``Engine.run`` once, not twice.
    """
