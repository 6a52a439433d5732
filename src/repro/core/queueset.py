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

Queue-operation costs live here so the runners stay agnostic: ``pop``
returns the cycle cost of the operation alongside the items, and
:meth:`~repro.core.runcontext.RunContext.push_cost` charges each batch of
children :meth:`op_cost` per target stage.

Every queue set maintains a :class:`~repro.obs.depth.DepthSeries` — the
canonical per-stage backlog ledger that the run context, the online
adapter and the serving controller read — and, when a telemetry bus is
attached (:meth:`attach_bus`), emits
:class:`~repro.obs.events.QueuePush` / :class:`~repro.obs.events.QueuePop`
events carrying a depth sample per operation (``stolen=True`` marks a
cross-shard steal).  With no bus attached no event objects are created.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..gpu.specs import GPUSpec
from ..obs.depth import DepthSeries
from ..obs.events import QueuePop, QueuePush
from .errors import ConfigurationError
from .queues import QueuedItem, QueueStats, WorkQueue, queue_op_cost

QUEUE_MODES = ("shared", "distributed")

#: Shard key for items pushed from the host (initial insertions).
HOST_SHARD = -1

#: Shard key reported for the single queue of the shared organisation.
SHARED_SHARD = 0

#: Multiplier on the fixed queue cost when stealing from a remote shard.
STEAL_COST_FACTOR = 2.5


class _QueueSetBase:
    """Depth accounting, operation costs and telemetry shared by both
    organisations."""

    #: Whether an operation on a stage's own queue pays the contention
    #: level: every block shares a stage's one global queue, while a
    #: distributed producer or consumer uses its own SM's shard.
    contended = True

    def __init__(self, stages: dict[str, int], spec: GPUSpec) -> None:
        """``stages`` maps stage name -> item size in bytes."""
        #: Canonical backlog ledger (always on; see repro.obs.depth).
        self.depth = DepthSeries(stages)
        self.spec = spec
        self._item_bytes = dict(stages)
        #: Approximate concurrent accessors per SM; set by the engine.
        self._contention_level = 0.0
        #: (stage, batch size) -> :meth:`op_cost` at the current level.
        self._op_costs: dict[tuple[str, int], float] = {}
        self.bus = None
        self._now: Optional[Callable[[], float]] = None

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

    def attach_bus(self, bus, clock: Callable[[], float]) -> None:
        """Start emitting queue events on ``bus``, timestamped by
        ``clock`` (the device engine's ``now``)."""
        self.bus = bus
        self._now = clock

    def _emit_push(self, stage: str, shard: int, depth: int) -> None:
        self.bus.emit(
            QueuePush(t=self._now(), stage=stage, shard=shard, depth=depth)
        )

    def _emit_pop(
        self, stage: str, shard: int, count: int, depth: int, stolen: bool
    ) -> None:
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


class SharedQueueSet(_QueueSetBase):
    """One global work queue per stage (the paper's default)."""

    def __init__(self, stages: dict[str, int], spec: GPUSpec) -> None:
        super().__init__(stages, spec)
        self._queues = {
            name: WorkQueue(name, item_bytes)
            for name, item_bytes in stages.items()
        }
        self.steals = 0  # always zero for the shared organisation

    def push(
        self,
        stage: str,
        payload: object,
        producer_sm: Optional[int],
    ) -> None:
        self._queues[stage].push(payload, producer_sm)
        depth = self.depth.push(stage)
        if self.bus is not None:
            self._emit_push(stage, SHARED_SHARD, depth)

    def push_many(
        self, stage: str, payloads: list[object], producer_sm: Optional[int]
    ) -> None:
        """Bulk :meth:`push` of ``payloads`` into one stage.

        With a bus attached the per-item path is used so the emitted
        push-event stream (one event + depth sample per item) is
        unchanged; otherwise all bookkeeping runs once for the batch.
        """
        if self.bus is not None:
            for payload in payloads:
                self.push(stage, payload, producer_sm)
            return
        self._queues[stage].push_many(payloads, producer_sm)
        self.depth.push(stage, len(payloads))

    def pop(
        self, stage: str, max_items: int, sm_id: Optional[int]
    ) -> tuple[list[QueuedItem], float]:
        batch = self._queues[stage].pop_batch(max_items)
        count = len(batch)
        if count:
            depth = self.depth.pop(stage, count)
            if self.bus is not None:
                self._emit_pop(stage, SHARED_SHARD, count, depth, stolen=False)
        return batch, self.op_cost(stage, count)

    def drain(
        self, stage: str, max_items: Optional[int] = None
    ) -> list[QueuedItem]:
        queue = self._queues[stage]
        limit = len(queue)
        if max_items is not None and max_items < limit:
            limit = max_items
        batch = queue.pop_batch(limit)
        if batch:
            depth = self.depth.pop(stage, len(batch))
            if self.bus is not None:
                self._emit_pop(
                    stage, SHARED_SHARD, len(batch), depth, stolen=False
                )
        return batch

    def stats(self) -> dict[str, QueueStats]:
        return {name: q.stats for name, q in self._queues.items()}


class DistributedQueueSet(_QueueSetBase):
    """Per-SM queue shards with locality-first popping and stealing."""

    contended = False

    def __init__(
        self, stages: dict[str, int], spec: GPUSpec
    ) -> None:
        super().__init__(stages, spec)
        shard_ids = [HOST_SHARD] + list(range(spec.num_sms))
        self._shards: dict[str, dict[int, WorkQueue]] = {
            name: {
                shard: WorkQueue(f"{name}@{shard}", item_bytes)
                for shard in shard_ids
            }
            for name, item_bytes in stages.items()
        }
        self.steals = 0

    # ------------------------------------------------------------------
    def push(
        self, stage: str, payload: object, producer_sm: Optional[int]
    ) -> None:
        shard = HOST_SHARD if producer_sm is None else producer_sm
        self._shards[stage][shard].push(payload, producer_sm)
        depth = self.depth.push(stage)
        if self.bus is not None:
            self._emit_push(stage, shard, depth)

    def push_many(
        self, stage: str, payloads: list[object], producer_sm: Optional[int]
    ) -> None:
        """Bulk :meth:`push`: every item lands on the producer's shard, so
        the batch is one ``push_many`` on a single queue.  Falls back to the
        per-item path when a bus is attached (event stream unchanged)."""
        if self.bus is not None:
            for payload in payloads:
                self.push(stage, payload, producer_sm)
            return
        shard = HOST_SHARD if producer_sm is None else producer_sm
        self._shards[stage][shard].push_many(payloads, producer_sm)
        self.depth.push(stage, len(payloads))

    def pop(
        self, stage: str, max_items: int, sm_id: Optional[int]
    ) -> tuple[list[QueuedItem], float]:
        shards = self._shards[stage]
        batch: list[QueuedItem] = []
        cost = 0.0
        shard = sm_id if sm_id is not None else HOST_SHARD
        stolen = False
        local = shards.get(shard)
        if local is not None and not local.empty:
            batch = local.pop_batch(max_items)
            cost += self.op_cost(stage, len(batch))
        if not batch:
            victim = self._richest_shard(stage, exclude=sm_id)
            if victim is not None:
                batch = shards[victim].pop_batch(max_items)
                if batch:
                    self.steals += 1
                    shard = victim
                    stolen = True
                    cost += STEAL_COST_FACTOR * queue_op_cost(
                        self.spec,
                        self._item_bytes[stage],
                        len(batch),
                        self.contention_level,
                    )
        if batch:
            depth = self.depth.pop(stage, len(batch))
            if self.bus is not None:
                self._emit_pop(stage, shard, len(batch), depth, stolen)
        return batch, cost

    def drain(
        self, stage: str, max_items: Optional[int] = None
    ) -> list[QueuedItem]:
        items: list[QueuedItem] = []
        for shard_id, shard in self._shards[stage].items():
            take = len(shard)
            if max_items is not None:
                remaining = max_items - len(items)
                if remaining <= 0:
                    break
                if remaining < take:
                    take = remaining
            drained = shard.pop_batch(take)
            if drained:
                depth = self.depth.pop(stage, len(drained))
                if self.bus is not None:
                    self._emit_pop(
                        stage, shard_id, len(drained), depth, stolen=False
                    )
            items.extend(drained)
        return items

    def _richest_shard(
        self, stage: str, exclude: Optional[int]
    ) -> Optional[int]:
        best_shard, best_len = None, 0
        for shard_id, queue in self._shards[stage].items():
            if shard_id == exclude:
                continue
            if len(queue) > best_len:
                best_shard, best_len = shard_id, len(queue)
        return best_shard

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, QueueStats]:
        merged: dict[str, QueueStats] = {}
        for name, shards in self._shards.items():
            stats = QueueStats()
            for queue in shards.values():
                stats.merge(queue.stats)
            merged[name] = stats
        return merged


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
