"""Queue organisations: one shared queue per stage, or distributed per-SM
shards with work stealing.

Section 8.5 names queue overhead as VersaPipe's main residual cost and
suggests "more efficient queue schemes (e.g., distributed queues)"; the
related work (Cederman & Tsigas; Chen et al.; Tzeng et al.) builds such
queues with stealing/donation.  This module implements both:

* :class:`SharedQueueSet` — the paper's baseline: one global queue per
  stage.  Every enqueue/dequeue pays contention proportional to the number
  of persistent blocks hammering the same atomic counters.
* :class:`DistributedQueueSet` — one shard per SM per stage (plus a host
  shard for initial items).  Producers push to their own SM's shard
  (contention-free), consumers pop locally first and *steal* from the
  richest shard when empty, paying a remote-access surcharge.

A queue is a plain deque of :class:`~repro.core.queues.QueuedItem`.
Queue-operation costs live here so the runners stay agnostic: ``pop``
returns the cycle cost of the operation alongside the items, and
:meth:`~repro.core.runcontext.RunContext.push_cost` charges each batch of
children :meth:`op_cost` per target stage.

Every queue set keeps one tally, a :class:`~repro.obs.depth.DepthSeries`
updated once per push or pop: the backlog the run context, the online
adapter and the serving controller read, and the source of
:meth:`stats`.  When a telemetry bus is attached (:meth:`attach_bus`) it
also emits :class:`~repro.obs.events.QueuePush` /
:class:`~repro.obs.events.QueuePop` events carrying a depth sample per
item pushed and per batch popped (``stolen=True`` marks a cross-shard
steal).  With no bus attached no event objects are created.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..gpu.specs import GPUSpec
from ..obs.depth import DepthSeries
from ..obs.events import QueuePop, QueuePush
from .errors import ConfigurationError
from .queues import QueuedItem, QueueStats, queue_op_cost

QUEUE_MODES = ("shared", "distributed")

#: Shard key for items pushed from the host (initial insertions).
HOST_SHARD = -1

#: Shard key reported for the single queue of the shared organisation.
SHARED_SHARD = 0

#: Multiplier on the fixed queue cost when stealing from a remote shard.
STEAL_COST_FACTOR = 2.5


class _QueueSetBase:
    """Both organisations: per-stage shards, the tally, operation costs
    and telemetry.

    A block on SM ``s`` (``None`` for the host) pushes to and pops from
    its home shard; the organisations differ only in the home map
    (:meth:`_homes`) and in :attr:`contended`.
    """

    #: Whether an operation on a stage's own queue pays the contention
    #: level: every block shares a stage's one global queue, while a
    #: distributed producer or consumer uses its own SM's shard.
    contended = True

    def __init__(self, stages: dict[str, int], spec: GPUSpec) -> None:
        """``stages`` maps stage name -> item size in bytes."""
        #: The one queue tally (always on; see repro.obs.depth).
        self.depth = DepthSeries(stages)
        self.spec = spec
        self._item_bytes = dict(stages)
        #: Producer or consumer SM (``None``: the host) -> its shard.
        self._home = self._homes(spec)
        shard_ids = dict.fromkeys(self._home.values())
        self._shards: dict[str, dict[int, deque[QueuedItem]]] = {
            name: {shard: deque() for shard in shard_ids} for name in stages
        }
        #: Approximate concurrent accessors per SM; set by the engine.
        self._contention_level = 0.0
        #: (stage, batch size) -> :meth:`op_cost` at the current level.
        self._op_costs: dict[tuple[str, int], float] = {}
        #: Pops served from another shard than the consumer's own.
        self.steals = 0
        self.bus = None
        self._now: Optional[Callable[[], float]] = None

    @staticmethod
    def _homes(spec: GPUSpec) -> dict[Optional[int], int]:
        raise NotImplementedError

    @property
    def contention_level(self) -> float:
        return self._contention_level

    @contention_level.setter
    def contention_level(self, value: float) -> None:
        if value != self._contention_level:
            self._contention_level = value
            self._op_costs.clear()

    def op_cost(self, stage: str, count: int) -> float:
        """Cycles for one push or pop of ``count`` items on ``stage``'s
        own queue (see :attr:`contended`), memoized until the contention
        level changes."""
        cost = self._op_costs.get((stage, count))
        if cost is None:
            contention = self._contention_level if self.contended else 0.0
            cost = self._op_costs[stage, count] = queue_op_cost(
                self.spec, self._item_bytes[stage], count, contention
            )
        return cost

    def has_work(self, stage: str) -> bool:
        return self.depth.current[stage] > 0

    def stats(self) -> dict[str, QueueStats]:
        """Each stage's queue traffic so far, read off the tally."""
        depth = self.depth
        return {
            stage: QueueStats(
                enqueued=pushed,
                dequeued=pushed - depth.current[stage],
                peak_length=depth.peak[stage],
                bytes_moved=pushed * self._item_bytes[stage],
            )
            for stage, pushed in depth.pushed.items()
        }

    def attach_bus(self, bus, clock: Callable[[], float]) -> None:
        """Start emitting queue events on ``bus``, timestamped by
        ``clock`` (the device engine's ``now``)."""
        self.bus = bus
        self._now = clock

    # ------------------------------------------------------------------
    def push(
        self, stage: str, payloads: list[object], producer_sm: Optional[int]
    ) -> None:
        """Append ``payloads`` to ``stage``'s queue on the producer's home
        shard: one tally update, and with a bus one event per item."""
        shard = self._home[producer_sm]
        append = self._shards[stage][shard].append
        for payload in payloads:
            append(QueuedItem(payload, producer_sm))
        n = len(payloads)
        depth = self.depth.push(stage, n)
        if self.bus is not None:
            t = self._now()
            emit = self.bus.emit
            for item_depth in range(depth - n + 1, depth + 1):
                emit(QueuePush(t=t, stage=stage, shard=shard, depth=item_depth))

    def pop(
        self, stage: str, max_items: int, sm_id: Optional[int]
    ) -> tuple[list[QueuedItem], float]:
        """Pop up to ``max_items`` of ``stage``'s items for a block on
        ``sm_id``: from its home shard, else stolen from the richest
        shard.  Returns the items and the operation's cycles."""
        shards = self._shards[stage]
        shard = self._home[sm_id]
        local = shards[shard]
        if local:
            batch = self._take(stage, shard, local, max_items)
            return batch, self.op_cost(stage, len(batch))
        victim, most = None, 0
        for shard_id, queue in shards.items():
            if len(queue) > most:
                victim, most = shard_id, len(queue)
        if victim is None:
            return [], 0.0
        batch = self._take(stage, victim, shards[victim], max_items, True)
        if not batch:
            return batch, 0.0
        self.steals += 1
        return batch, STEAL_COST_FACTOR * queue_op_cost(
            self.spec,
            self._item_bytes[stage],
            len(batch),
            self._contention_level,
        )

    def drain(
        self, stage: str, max_items: Optional[int] = None
    ) -> list[QueuedItem]:
        """Remove up to ``max_items`` (default: all) of ``stage``'s
        items, shard by shard."""
        items: list[QueuedItem] = []
        for shard_id, shard in self._shards[stage].items():
            limit = len(shard) if max_items is None else max_items - len(items)
            items.extend(self._take(stage, shard_id, shard, limit))
        return items

    def _take(
        self,
        stage: str,
        shard: int,
        queue: deque[QueuedItem],
        limit: int,
        stolen: bool = False,
    ) -> list[QueuedItem]:
        """Pop up to ``limit`` items off the front of ``queue``, one of
        ``stage``'s shards: one tally update, and with a bus one event."""
        if limit >= len(queue):
            batch = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            batch = []
            for _ in range(limit):
                batch.append(popleft())
        if batch:
            count = len(batch)
            depth = self.depth.pop(stage, count)
            if self.bus is not None:
                self.bus.emit(
                    QueuePop(
                        t=self._now(),
                        stage=stage,
                        shard=shard,
                        count=count,
                        depth=depth,
                        stolen=stolen,
                    )
                )
        return batch


class SharedQueueSet(_QueueSetBase):
    """One global work queue per stage (the paper's default): the host
    and every SM share one shard."""

    @staticmethod
    def _homes(spec: GPUSpec) -> dict[Optional[int], int]:
        return dict.fromkeys([None, *range(spec.num_sms)], SHARED_SHARD)


class DistributedQueueSet(_QueueSetBase):
    """Per-SM queue shards with locality-first popping and stealing:
    each SM's home is its own shard, the host's the host shard."""

    contended = False

    @staticmethod
    def _homes(spec: GPUSpec) -> dict[Optional[int], int]:
        return {None: HOST_SHARD, **{sm: sm for sm in range(spec.num_sms)}}


def make_queue_set(
    mode: str, stages: dict[str, int], spec: GPUSpec
):
    if mode == "shared":
        return SharedQueueSet(stages, spec)
    if mode == "distributed":
        return DistributedQueueSet(stages, spec)
    raise ConfigurationError(
        f"unknown queue mode {mode!r}; choose from {QUEUE_MODES}"
    )
