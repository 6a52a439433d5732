"""Per-request tracing: follow every request end to end through a run.

The batch observability layer aggregates per *stage* (queue waits, task
counts).  Open-loop serving needs the orthogonal cut: per *request* — when
did request 17 arrive, how long did each of its items wait in each queue,
when did its last descendant finish.  That is what
:class:`RequestTracker` provides.

The tracker hangs off :class:`~repro.core.runcontext.RunContext` as the
optional ``request_tracker`` attribute (``None`` by default — batch runs
pay a single ``is None`` test per queue operation and allocate nothing).
The run context notifies it at the three moments that define a span:

* **enqueue** — an item entered a stage queue (``note_enqueued``);
* **dequeue** — a consumer popped it (``note_dequeued``);
* **complete** — its task finished and its children were enqueued
  (``note_completed``, called with the completion timestamp *after* the
  simulated compute and push costs elapsed).

In-flight items must be :class:`RequestItem` wrappers (the serving
layer's tagging executor guarantees this): the request id and the two
queue timestamps ride on the item itself, so the tracker needs no
identity maps and stays O(1) per operation.

A request completes when its span's pending-item count returns to zero.
The count is incremented at enqueue and decremented at completion, and the
runners enqueue children *before* completing their parent, so the count
can never transiently hit zero while descendants are still in flight —
the same invariant the run context's outstanding-work accounting relies
on.  Items executed inline inside fused (RTC) groups never touch a
queue; their time is part of the fused visit's service interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .events import (
    EventBus,
    RequestArrived,
    RequestCompleted,
    RequestShed,
    RequestStageSpan,
)


class RequestItem:
    """An in-flight payload tagged with its request id and queue stamps."""

    __slots__ = ("rid", "inner", "enqueue_t", "dequeue_t")

    def __init__(self, rid: int, inner: object) -> None:
        self.rid = rid
        self.inner = inner
        self.enqueue_t = 0.0
        self.dequeue_t = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestItem(rid={self.rid}, inner={self.inner!r})"


@dataclass
class StageVisitTotals:
    """Aggregated visits of one request to one stage."""

    visits: int = 0
    wait_cycles: float = 0.0
    service_cycles: float = 0.0


@dataclass
class RequestSpan:
    """One request's end-to-end record."""

    rid: int
    entry_stage: str
    arrival_t: float
    completion_t: float = 0.0
    visits: int = 0
    #: Items of the request queued or executing; it completes at zero.
    pending: int = 0
    #: Per-stage aggregates (a request can visit a stage many times).
    stages: dict[str, StageVisitTotals] = field(default_factory=dict)

    @property
    def latency_cycles(self) -> float:
        return self.completion_t - self.arrival_t


class RequestTracker:
    """Builds :class:`RequestSpan` records from run-context callbacks.

    ``on_visit(stage, wait_cycles, service_cycles)`` fires once per
    completed stage visit and ``on_complete(span)`` once per finished
    request — the serving report accumulates its histograms there, in
    deterministic simulation order.  With a ``bus`` attached the tracker
    also emits the ``req_arrive`` / ``req_span`` / ``req_done`` events
    that the Chrome-trace exporter turns into flow-linked request tracks.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        on_visit: Optional[Callable[[str, float, float], None]] = None,
        on_complete: Optional[Callable[[RequestSpan], None]] = None,
    ) -> None:
        self.bus = bus
        self.on_visit = on_visit
        self.on_complete = on_complete
        self.spans: dict[int, RequestSpan] = {}

    # ------------------------------------------------------------------
    # Lifecycle notifications (serving driver + run context).
    # ------------------------------------------------------------------
    def begin(self, rid: int, stage: str, t: float) -> None:
        """A new request was injected at ``stage`` at engine time ``t``."""
        self.spans[rid] = RequestSpan(rid=rid, entry_stage=stage, arrival_t=t)
        if self.bus is not None:
            self.bus.emit(RequestArrived(t=t, rid=rid, stage=stage))

    def shed(self, rid: int, stage: str, t: float) -> None:
        """An admission policy refused ``rid`` at arrival.

        The request never enters a queue, so no span is opened; with a
        bus attached a ``req_shed`` event records it.
        """
        if self.bus is not None:
            self.bus.emit(RequestShed(t=t, rid=rid, stage=stage))

    def note_enqueued(self, item: RequestItem, t: float) -> None:
        """One item entered a stage queue."""
        item.enqueue_t = t
        self.spans[item.rid].pending += 1

    def note_dequeued(self, qitems, t: float) -> None:
        """A batch of queued items was popped (``qitems`` are
        :class:`~repro.core.queues.QueuedItem`)."""
        for qitem in qitems:
            qitem.payload.dequeue_t = t

    def note_completed(self, stage: str, qitems, t: float) -> None:
        """A batch of queued items finished ``stage`` at time ``t``."""
        bus = self.bus
        on_visit = self.on_visit
        for qitem in qitems:
            item = qitem.payload
            rid = item.rid
            span = self.spans[rid]
            wait = item.dequeue_t - item.enqueue_t
            service = t - item.dequeue_t
            totals = span.stages.get(stage)
            if totals is None:
                totals = span.stages[stage] = StageVisitTotals()
            totals.visits += 1
            totals.wait_cycles += wait
            totals.service_cycles += service
            span.visits += 1
            if bus is not None:
                bus.emit(
                    RequestStageSpan(
                        t=t,
                        rid=rid,
                        stage=stage,
                        enqueue_t=item.enqueue_t,
                        dequeue_t=item.dequeue_t,
                    )
                )
            if on_visit is not None:
                on_visit(stage, wait, service)
            span.pending -= 1
            if span.pending == 0:
                self._finish(span, t)

    # ------------------------------------------------------------------
    def _finish(self, span: RequestSpan, t: float) -> None:
        span.completion_t = t
        del self.spans[span.rid]
        if self.bus is not None:
            self.bus.emit(
                RequestCompleted(
                    t=t,
                    rid=span.rid,
                    latency=span.latency_cycles,
                    visits=span.visits,
                )
            )
        if self.on_complete is not None:
            self.on_complete(span)

    @property
    def in_flight(self) -> int:
        return len(self.spans)
