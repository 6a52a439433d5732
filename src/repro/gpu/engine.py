"""The deterministic discrete-event engine.

The whole simulator runs on a single event calendar.  Time is measured in
*cycles* of the simulated device's core clock; the device facade converts to
micro/milliseconds for reporting.  Determinism is guaranteed by breaking
time ties with a monotonically increasing sequence number, so repeated runs
of the same program produce bit-identical schedules.

:class:`Engine` is a ``heapq`` of ``(time, seq, token, callback)`` tuples,
popped one event at a time.  Cancellation is *lazy*: a cancelled event
leaves a tombstone in the heap that is skipped when it surfaces, and the
heap is compacted once tombstones both reach ``COMPACT_MIN`` and
outnumber live events.  ``(time, seq)``
is a total order, so compaction cannot change the order events fire in
(``tests/gpu/test_determinism_golden.py`` and the frozen random programs
of ``tests/gpu/test_engine_differential.py`` pin this).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class CancelToken:
    """Handle for a scheduled event that may be cancelled before it fires.

    The engine back-reference lets the engine keep an exact count of
    tombstones still sitting in the heap; it is dropped when the entry
    leaves the heap so late ``cancel()`` calls on fired events are free.
    """

    __slots__ = ("cancelled", "_engine")

    def __init__(self, engine: "Optional[Engine]" = None) -> None:
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            engine = self._engine
            if engine is not None:
                engine._note_cancel()


class Timer:
    """A reusable re-armable timer for high-churn reschedule points.

    ``arm(delay)`` replaces any previous arming (the old heap entry
    becomes a tombstone); ``disarm()`` cancels without re-arming.  One
    ``Timer`` object serves an unbounded number of re-schedules, so call
    sites like ``SM._reschedule`` stop allocating a fresh token and
    re-deriving the callback on every residency change.  Arming performs
    exactly the cancel-then-push sequence of the naive path, so event
    ordering — including ties — is unchanged.
    """

    __slots__ = ("_engine", "_fn", "_token")

    def __init__(self, engine, fn: Callable[[], None]) -> None:
        self._engine = engine
        self._fn = fn
        self._token = None

    @property
    def armed(self) -> bool:
        return self._token is not None and not self._token.cancelled

    def arm(self, delay: float) -> None:
        """Schedule the callback ``delay`` cycles from now, replacing any
        previous arming."""
        token = self._token
        if token is not None:
            token.cancel()
        self._token = self._engine.schedule(delay, self._fn)

    def disarm(self) -> None:
        token = self._token
        if token is not None:
            token.cancel()
            self._token = None

    def fired(self) -> None:
        """Mark the armed event as delivered (call first in the callback)."""
        self._token = None


class Engine:
    """A minimal deterministic event heap."""

    #: Compaction triggers when at least this many tombstones accumulate
    #: *and* they outnumber live events.  Class attribute so tests can
    #: force aggressive compaction (``Engine.COMPACT_MIN = 1``) and prove
    #: schedules are unchanged.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, CancelToken, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._peak_pending = 0
        #: Cancelled entries still buried in the heap.
        self._tombstones = 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self._heap) - self._tombstones

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of *live* scheduled events — how much
        simultaneous in-flight activity the simulated run generated
        (telemetry).  Cancelled tombstones awaiting removal do not
        count; they are heap garbage, not pending work."""
        return self._peak_pending

    def schedule(self, delay: float, fn: Callable[[], None]) -> CancelToken:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        Negative delays are clamped to zero (events cannot fire in the
        past).  Returns a token that can cancel the event.
        """
        if delay < 0:
            delay = 0.0
        token = CancelToken(self)
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), token, fn))
        live = len(self._heap) - self._tombstones
        if live > self._peak_pending:
            self._peak_pending = live
        return token

    def schedule_call(self, delay: float, fn: Callable, arg: object = _NO_ARG) -> None:
        """Typed fire-and-forget schedule: run ``fn(arg)`` (or ``fn()``
        when no argument is given) ``delay`` cycles from now.

        Implemented on top of :meth:`schedule`, so it consumes exactly
        one sequence number.  No token is returned: typed events cannot
        be cancelled.
        """
        if arg is _NO_ARG:
            self.schedule(delay, fn)
        else:
            self.schedule(delay, lambda: fn(arg))

    def schedule_call_at(
        self, time: float, fn: Callable, arg: object = _NO_ARG
    ) -> None:
        """Typed fire-and-forget schedule at an absolute time."""
        self.schedule_call(max(0.0, time - self.now), fn, arg)

    def schedule_many(
        self, delay: float, fns: "list[Callable[[], None]]"
    ) -> list[CancelToken]:
        """Schedule several callbacks at the same delay in list order.

        Equivalent to — and fires in the same order as — calling
        :meth:`schedule` once per callback, with the bookkeeping done
        once per batch instead of once per event.
        """
        if delay < 0:
            delay = 0.0
        time = self.now + delay
        heap = self._heap
        push = heapq.heappush
        seq = self._seq
        tokens = []
        for fn in fns:
            token = CancelToken(self)
            push(heap, (time, next(seq), token, fn))
            tokens.append(token)
        live = len(heap) - self._tombstones
        if live > self._peak_pending:
            self._peak_pending = live
        return tokens

    def schedule_at(self, time: float, fn: Callable[[], None]) -> CancelToken:
        """Schedule ``fn`` at an absolute time (clamped to >= now)."""
        return self.schedule(max(0.0, time - self.now), fn)

    def timer(self, fn: Callable[[], None]) -> Timer:
        """A reusable :class:`Timer` bound to ``fn`` (see its docstring)."""
        return Timer(self, fn)

    # ------------------------------------------------------------------
    # Tombstone accounting.
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by tokens of in-heap entries on first cancellation."""
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
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._engine = None
            self._tombstones -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns False when the heap is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, token, fn = pop(heap)
            token._engine = None  # left the heap; late cancels are free
            if token.cancelled:
                self._tombstones -= 1
                continue
            assert time >= self.now, "event scheduled in the past"
            self.now = time
            self._events_processed += 1
            fn()
            return True
        return False

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
        doubles the per-event dispatch cost.  ``until_flag`` is the
        cheaper form of ``until`` for callers that maintain the stop
        condition incrementally: a one-element list whose truthy ``[0]``
        stops the run, checked per event as a plain index instead of a
        call (the device's ``synchronize`` keeps its launch-completion
        flag this way).  ``max_events`` is a runaway guard: if another
        live event would still fire after that many, the run raises
        ``RuntimeError`` rather than hanging a test run forever.
        """
        pop = heapq.heappop
        for _ in range(max_events):
            if deadline is not None and self.now > deadline:
                return
            if until_flag is not None and until_flag[0]:
                return
            if until is not None and until():
                return
            # Inlined step(): one attribute fetch + heap pop per event
            # instead of a method call.  ``fn()`` may trigger
            # ``_compact``, which rebinds ``self._heap`` — re-fetch it
            # every iteration.
            heap = self._heap
            fired = False
            while heap:
                time, _seq, token, fn = pop(heap)
                token._engine = None  # left the heap; late cancels are free
                if token.cancelled:
                    self._tombstones -= 1
                    continue
                assert time >= self.now, "event scheduled in the past"
                self.now = time
                self._events_processed += 1
                fn()
                fired = True
                break
            if not fired:
                return
        # The budget is spent: trip the guard only if the run would go on.
        if deadline is not None and self.now > deadline:
            return
        if until_flag is not None and until_flag[0]:
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
