"""Typed run-telemetry events and the event bus.

Every observable action in the simulator — kernel launches and
retirements, block admission and exit, compute segments, queue
push/pop/steal (with a depth sample), host synchronisations, memcpys,
and online-adaptation decisions — is described by one event dataclass
here.  Emitters hold an optional :class:`EventBus` reference (``None``
by default) and guard every emission with a ``None`` check, so **no
event object is ever allocated unless a subscriber attached** — tracing
is zero-cost when off.

All timestamps are in cycles of the simulated device's core clock (the
event engine's time base), which keeps the stream fully deterministic:
two identical runs produce identical event streams (after normalising
the process-global block/launch/stream ids — see
:meth:`repro.obs.recorder.EventRecorder.canonical_lines`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar


class EventBus:
    """A minimal synchronous pub/sub fan-out for telemetry events.

    Subscribers are called in subscription order with each event.  The
    bus itself never mutates events; a subscriber must copy anything it
    wants to keep past the callback (events are immutable in practice —
    emitters never reuse them).
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: list[Callable[[object], None]] = []

    def subscribe(self, fn: Callable[[object], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, event: object) -> None:
        for fn in self._subscribers:
            fn(event)


@dataclass(slots=True)
class Event:
    """Base class: every event carries its emission time in cycles."""

    kind: ClassVar[str] = "event"

    t: float

    def row(self) -> tuple:
        """Flat field tuple (kind first) for CSV/diff serialisation."""
        return (self.kind,) + tuple(
            getattr(self, f.name) for f in fields(self)
        )


@dataclass(slots=True)
class KernelLaunched(Event):
    """A grid was issued from the host (or a DP parent)."""

    kind: ClassVar[str] = "kernel_launch"

    launch_id: int
    kernel: str
    num_blocks: int
    stream_id: int


@dataclass(slots=True)
class KernelRetired(Event):
    """The last block of a launch retired."""

    kind: ClassVar[str] = "kernel_retire"

    launch_id: int
    kernel: str


@dataclass(slots=True)
class BlockAdmitted(Event):
    """A thread block was admitted to an SM (occupancy granted)."""

    kind: ClassVar[str] = "block_admit"

    sm_id: int
    block_id: int
    kernel: str
    threads: int


@dataclass(slots=True)
class BlockExited(Event):
    """A thread block finished its program and freed its SM resources."""

    kind: ClassVar[str] = "block_exit"

    sm_id: int
    block_id: int
    kernel: str


@dataclass(slots=True)
class ComputeSegment(Event):
    """One completed Compute interval of one block on one SM.

    ``t`` is the segment end (the emission time); ``start`` is when the
    segment began draining.
    """

    kind: ClassVar[str] = "compute"

    sm_id: int
    block_id: int
    kernel: str
    start: float
    work: float

    @property
    def end(self) -> float:
        return self.t

    @property
    def duration(self) -> float:
        return self.t - self.start


@dataclass(slots=True)
class QueuePush(Event):
    """One item entered a stage queue; ``depth`` is sampled after."""

    kind: ClassVar[str] = "queue_push"

    stage: str
    shard: int
    depth: int


@dataclass(slots=True)
class QueuePop(Event):
    """A batch left a stage queue; ``depth`` is sampled after.

    ``stolen`` marks a cross-shard steal under the distributed queue
    organisation (``shard`` is then the victim shard).
    """

    kind: ClassVar[str] = "queue_pop"

    stage: str
    shard: int
    count: int
    depth: int
    stolen: bool


@dataclass(slots=True)
class HostSync(Event):
    """The host paid a stream/device synchronisation.

    ``source`` distinguishes explicit ``device.synchronize()`` calls
    (``"sync"``) from the implicit per-wave synchronisation of the KBK
    drivers (``"wave"``).
    """

    kind: ClassVar[str] = "host_sync"

    source: str
    cycles: float


@dataclass(slots=True)
class Memcpy(Event):
    """One host<->device transfer (``direction`` is ``h2d`` or ``d2h``)."""

    kind: ClassVar[str] = "memcpy"

    direction: str
    num_bytes: int
    cycles: float


@dataclass(slots=True)
class Adaptation(Event):
    """The online adapter re-filled freed SMs with a backlogged group."""

    kind: ClassVar[str] = "adaptation"

    freed_sms: tuple
    stages: tuple
    backlog: int


@dataclass(slots=True)
class GroupExited(Event):
    """Every persistent block of one stage group reached quiescence."""

    kind: ClassVar[str] = "group_exit"

    stages: tuple
    blocks: int


@dataclass(slots=True)
class TunerEvaluation(Event):
    """The offline tuner finished one candidate configuration.

    Tuner events are host-side: ``t`` is the candidate's position in the
    canonical enumeration order, not a device clock.  ``outcome`` is one
    of ``completed``, ``timeout``, ``dominated`` or ``invalid``;
    ``cached`` marks outcomes served from the persistent profile cache
    instead of a fresh replay.
    """

    kind: ClassVar[str] = "tuner_eval"

    index: int
    config: str
    time_ms: float
    outcome: str
    cached: bool


@dataclass(slots=True)
class TunerSearchCompleted(Event):
    """The offline tuner's search finished; one summary event per run."""

    kind: ClassVar[str] = "tuner_done"

    evaluated: int
    completed: int
    timeouts: int
    dominated: int
    invalid: int
    cache_hits: int
    cache_misses: int
    workers: int
    best_time_ms: float


@dataclass(slots=True)
class RequestArrived(Event):
    """An open-loop request entered the pipeline (serving mode)."""

    kind: ClassVar[str] = "req_arrive"

    rid: int
    stage: str


@dataclass(slots=True)
class RequestStageSpan(Event):
    """One queued item of a request finished one stage visit.

    ``t`` is the completion time (children enqueued, task accounted);
    ``enqueue_t``/``dequeue_t`` bracket the item's queue wait, so the
    visit decomposes into *queue wait* (``dequeue_t - enqueue_t``) and
    *service* (``t - dequeue_t``).
    """

    kind: ClassVar[str] = "req_span"

    rid: int
    stage: str
    enqueue_t: float
    dequeue_t: float


@dataclass(slots=True)
class RequestCompleted(Event):
    """The last in-flight item of a request completed end to end."""

    kind: ClassVar[str] = "req_done"

    rid: int
    latency: float
    visits: int


@dataclass(slots=True)
class RequestShed(Event):
    """An admission policy refused a request at arrival (serving mode).

    The request never entered a queue: no span, no completion, no
    latency sample — only this event and the report's shed counters.
    """

    kind: ClassVar[str] = "req_shed"

    rid: int
    stage: str


#: Event classes in a stable order (used by exporters and docs).
EVENT_TYPES = (
    KernelLaunched,
    KernelRetired,
    BlockAdmitted,
    BlockExited,
    ComputeSegment,
    QueuePush,
    QueuePop,
    HostSync,
    Memcpy,
    Adaptation,
    GroupExited,
    TunerEvaluation,
    TunerSearchCompleted,
    RequestArrived,
    RequestStageSpan,
    RequestCompleted,
    RequestShed,
)
