"""Work-queue items, statistics and costs (the low-level control layer,
Section 5).

Queues buffer data items between stages; the queue sets of
:mod:`repro.core.queueset` hold them as plain deques of
:class:`QueuedItem`.  The statistics the harness uses for the overhead
analysis (Section 8.5) — enqueues, dequeues, peak length and bytes
moved — are a :class:`QueueStats` view of the queue set's one tally,
its :class:`~repro.obs.depth.DepthSeries`.  The *timing* cost of queue
operations (atomic reservation latency, per-byte copy cost, contention)
is :func:`queue_op_cost`, parameterised by the device spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..gpu.specs import GPUSpec


class QueuedItem:
    """A payload plus the SM that produced it (for L1-locality modelling)."""

    __slots__ = ("payload", "producer_sm")

    def __init__(self, payload: object, producer_sm: Optional[int] = None) -> None:
        self.payload = payload
        self.producer_sm = producer_sm


@dataclass
class QueueStats:
    """One stage's queue traffic over a run."""

    enqueued: int = 0
    dequeued: int = 0
    #: The stage's peak depth (summed over shards when distributed).
    peak_length: int = 0
    bytes_moved: int = 0


def queue_op_cost(
    spec: GPUSpec, item_bytes: int, n_items: int, contention_level: float
) -> float:
    """Cycles for one queue operation moving ``n_items`` items.

    ``contention_level`` approximates the number of blocks per SM competing
    for the queue's atomic counters; batching amortises the fixed cost
    (the paper's observation that composite data items "reduce ... the
    needed queuing operations").
    """
    if n_items <= 0:
        return 0.0
    return (
        spec.queue_op_cycles
        + spec.queue_cycles_per_byte * item_bytes * n_items
        + spec.queue_contention_cycles * max(0.0, contention_level)
    )
