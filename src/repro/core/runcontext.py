"""Per-run coordination: queues, termination detection, task scheduling.

A :class:`RunContext` owns the work-queue organisation of one pipeline
execution and the *outstanding-work* accounting that replaces a real GPU's
done-flag polling:

* every enqueued item increments its stage's outstanding count; the count
  drops only after the item has been processed *and* its children have been
  enqueued, so the count can never falsely reach zero while work is still
  in flight;
* a set of stages is **quiescent** when no stage that can still reach it
  (per the pipeline's reachability closure) has outstanding work — this is
  when persistent blocks serving those stages can safely exit, and when the
  online tuner learns that SMs have been freed (Section 7);
* blocks fetch through :meth:`fetch_async`, which implements the paper's
  task scheduler: it picks a queue according to the configured policy and
  either delivers a batch (after a polling latency) or parks the block
  until work arrives or quiescence is reached.

Queues come in two organisations (:mod:`repro.core.queueset`): one shared
queue per stage, or distributed per-SM shards with work stealing — the
Section 8.5 improvement direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..gpu.device import GPUDevice
from .errors import ConfigurationError, ExecutionError
from .executor import Executor
from .pipeline import Pipeline
from .queues import QueueStats, queue_op_cost
from .queueset import make_queue_set

if TYPE_CHECKING:
    from ..obs.spans import RequestTracker

#: Task-scheduler policies (which stage's queue a block serves first).
POLICIES = ("deepest_first", "fifo", "round_robin")


class _WatchState:
    """Incremental quiescence counter for one watched stage set.

    ``upstream`` is the frozen set of stages whose outstanding work can
    still reach any watched stage (per the pipeline reachability
    closure); ``outstanding`` is the live sum of those stages'
    outstanding counts, maintained by ``_enqueue_one`` /
    ``complete_tasks``.  The watched set is quiescent exactly when the
    sum is zero, turning every ``is_quiescent`` call — the hottest
    function of a simulated run, previously a full reachability scan per
    completed task per waiter — into a single integer comparison.
    """

    __slots__ = ("upstream", "outstanding")

    def __init__(self, upstream: frozenset[str], outstanding: int) -> None:
        self.upstream = upstream
        self.outstanding = outstanding


@dataclass
class _Waiter:
    """A parked persistent block waiting for work on a set of stages."""

    stages: tuple[str, ...]
    capacity_fn: Callable[[str], int]
    resume: Callable[[object], None]
    sm_id: Optional[int] = None
    cancelled: bool = False
    #: Global park order (monotonic), for merging wake order across
    #: watch-tuple queues that share a stage.
    seq: int = 0


@dataclass
class StageRunStats:
    """Per-stage counters for one run."""

    tasks: int = 0
    items_emitted: int = 0
    busy_cycles: float = 0.0


class RunContext:
    """Shared state of one simulated pipeline execution."""

    def __init__(
        self,
        pipeline: Pipeline,
        device: GPUDevice,
        executor: Executor,
        policy: str = "deepest_first",
        queue_mode: str = "shared",
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown scheduler policy {policy!r}; choose from {POLICIES}"
            )
        self.pipeline = pipeline
        self.device = device
        self.executor = executor
        self.policy = policy
        self.queue_mode = queue_mode
        self.queue_set = make_queue_set(
            queue_mode,
            {
                name: stage.item_bytes
                for name, stage in pipeline.stages.items()
            },
            device.spec,
        )
        if device.obs is not None:
            # Thread the device's telemetry bus into the queue set so
            # push/pop/steal events carry engine-time depth samples.
            engine = device.engine
            self.queue_set.attach_bus(device.obs, lambda: engine.now)
        self.outstanding: dict[str, int] = {name: 0 for name in pipeline.stages}
        #: The queue set's live backlog ledger (stage -> queued items).
        #: Both organisations keep it exact on every push/pop/drain, so
        #: ``self._backlog[s] > 0`` is ``queue_set.has_work(s)`` without
        #: the method call — the scheduler's queue-pick scan reads it
        #: thousands of times per run.
        self._backlog = self.queue_set.depth.current
        self.total_outstanding = 0
        self.outputs: list[object] = []
        self.stage_stats: dict[str, StageRunStats] = {
            name: StageRunStats() for name in pipeline.stages
        }
        #: Depth of each stage in definition order, for deepest_first.
        self._depth = {name: i for i, name in enumerate(pipeline.stages)}
        #: Watched-stage-tuple -> incremental quiescence counter.
        self._watch_states: dict[tuple[str, ...], _WatchState] = {}
        #: Source stage -> watch states whose upstream set contains it.
        self._stage_watchers: dict[str, list[_WatchState]] = {
            name: [] for name in pipeline.stages
        }
        #: Stage-tuple -> policy-ordered stage preference (memoised).
        self._order_cache: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: Stage name -> item bytes (hoisted off the per-batch push path).
        self._item_bytes = {
            name: stage.item_bytes for name, stage in pipeline.stages.items()
        }
        self._waiters: deque[_Waiter] = deque()
        #: Watch tuple -> parked waiters with exactly that watch set, in
        #: park order.  Parking appends to ONE deque (blocks of a group
        #: share their watch tuple); ``_wake_for`` visits only the
        #: tuples containing the woken stage — usually a single deque —
        #: and merges multiple by the waiters' global park seq, so wake
        #: order is identical to a full park scan.
        self._watch_deques: dict[tuple[str, ...], deque[_Waiter]] = {}
        #: Stage -> watch tuples (seen so far) that contain it.
        self._stage_watch_tuples: dict[str, list[tuple[str, ...]]] = {}
        self._park_seq = 0
        #: Cancelled waiters still sitting in ``_waiters`` (compacted
        #: lazily once they outnumber the live ones).
        self._dead_waiters = 0
        self._peek_waiters: list[tuple[tuple[str, ...], Callable]] = []
        self._rr_cursor: dict[int, int] = {}
        #: Callbacks fired when a quiescence change may have freed blocks
        #: (the online tuner subscribes here).
        self.quiescence_listeners: list[Callable[[], None]] = []
        #: Optional per-request ledger (:class:`repro.obs.spans
        #: .RequestTracker`), installed by the open-loop serving driver.
        #: ``None`` for batch runs: every hook below is a single ``is
        #: None`` test, so request tracing is zero-cost when off.
        self.request_tracker: Optional[RequestTracker] = None
        #: Optional dynamic-batching governor ``(stage, cap) -> cap``
        #: installed by the serving controller: every queue pop and KBK
        #: drain offers its static capacity here and uses the (possibly
        #: smaller, never larger) returned value.  ``None`` for batch
        #: runs — one ``is None`` test per pop, zero-cost when off.
        self.batch_governor: Optional[Callable[[str, int], int]] = None

    # ------------------------------------------------------------------
    # Queue-contention knob (set by the engine from the launch plan).
    # ------------------------------------------------------------------
    @property
    def contention_level(self) -> float:
        return self.queue_set.contention_level

    @contention_level.setter
    def contention_level(self, value: float) -> None:
        self.queue_set.contention_level = value

    # ------------------------------------------------------------------
    # Outstanding-work accounting.
    # ------------------------------------------------------------------
    def insert_initial(self, items: dict[str, Sequence[object]]) -> None:
        """Insert user payloads as initial work (the paper's
        ``insertIntoQueue``), charging a host-to-device copy."""
        total_bytes = 0
        for stage_name, payloads in items.items():
            stage = self.pipeline.stage(stage_name)
            total_bytes += stage.item_bytes * len(payloads)
            for payload in payloads:
                wrapped = self.executor.wrap_initial(stage_name, payload)
                self._enqueue_one(stage_name, wrapped, producer_sm=None)
        if total_bytes:
            self.device.memcpy_h2d(total_bytes)

    def _enqueue_one(
        self, stage: str, item: object, producer_sm: Optional[int]
    ) -> None:
        self.queue_set.push(stage, item, producer_sm)
        self.outstanding[stage] += 1
        self.total_outstanding += 1
        for watch in self._stage_watchers[stage]:
            watch.outstanding += 1
        if self.request_tracker is not None:
            self.request_tracker.note_enqueued(item, self.device.engine.now)

    def enqueue_children(
        self, children: Iterable[tuple[str, object]], producer_sm: Optional[int]
    ) -> None:
        """Push emitted items and wake any block that can serve them.

        ``_wake_for`` drains every waiter a stage can satisfy in one
        call, so each distinct target is woken once per batch (repeat
        calls for the same stage would re-scan the waiter list and find
        nothing — resumes are deferred, no waiter re-parks in between).

        When nothing observes individual pushes (no telemetry bus, no
        request ledger), the batch is grouped by target stage and pushed
        through the queue sets' bulk path: queue contents, depth peaks
        and outstanding counters end up identical to the per-item path —
        pushes only grow a queue, and no event can interleave mid-batch —
        but the per-item bookkeeping runs once per target instead of
        once per child.  With an observer attached the per-item path is
        kept so the emitted push-event stream is unchanged.
        """
        if self.queue_set.bus is None and self.request_tracker is None:
            by_target: dict[str, list[object]] = {}
            for target, item in children:
                group = by_target.get(target)
                if group is None:
                    by_target[target] = [item]
                else:
                    group.append(item)
            outstanding = self.outstanding
            watchers = self._stage_watchers
            for target, group in by_target.items():
                self.queue_set.push_many(target, group, producer_sm)
                n = len(group)
                outstanding[target] += n
                self.total_outstanding += n
                for watch in watchers[target]:
                    watch.outstanding += n
            for target in by_target:
                self._wake_for(target)
            self._notify_peek_waiters(tuple(by_target))
            return
        touched: dict[str, None] = {}
        for target, item in children:
            self._enqueue_one(target, item, producer_sm)
            touched[target] = None
        for target in touched:
            self._wake_for(target)
        self._notify_peek_waiters(tuple(touched))

    def _notify_peek_waiters(self, touched: Sequence[str]) -> None:
        if not self._peek_waiters:
            return
        remaining = []
        for stages, callback in self._peek_waiters:
            if any(
                t in stages and self.queue_set.has_work(t) for t in touched
            ):
                self.device.engine.schedule_call(0.0, callback, True)
            else:
                remaining.append((stages, callback))
        self._peek_waiters = remaining

    def complete_tasks(
        self, stage: str, n_items: int, items: Optional[Sequence] = None
    ) -> None:
        """Account for ``n_items`` finished *queued* items of ``stage``.

        Must be called *after* the tasks' children were enqueued, so the
        outstanding count never transiently reaches zero mid-flight.
        ``items`` optionally passes the finished queued items themselves
        so the request ledger (serving mode) can close their spans at
        the completion timestamp.
        """
        if self.request_tracker is not None and items is not None:
            self.request_tracker.note_completed(
                stage, items, self.device.engine.now
            )
        if self.outstanding[stage] < n_items:
            raise ExecutionError(
                f"stage {stage!r} completed more items than were outstanding"
            )
        self.outstanding[stage] -= n_items
        self.total_outstanding -= n_items
        hit_zero = False
        for watch in self._stage_watchers[stage]:
            watch.outstanding -= n_items
            if not watch.outstanding:
                hit_zero = True
        # A waiter can only be released when its watch counter reaches
        # zero, and blocks never park on an already-quiescent watch
        # (fetch_async / wait_for_work test quiescence before parking) —
        # so unless some watch just hit zero here, or the whole run
        # drained (the quiescence listeners' "done" signal), the full
        # waiter scan cannot release anything and is skipped.
        if hit_zero or self.total_outstanding == 0:
            self._check_quiescence()

    # ------------------------------------------------------------------
    # Open-loop arrivals (serving mode).
    # ------------------------------------------------------------------
    def expect_arrivals(self, counts: dict[str, int]) -> None:
        """Reserve outstanding-work slots for future open-loop arrivals.

        The persistent blocks' exit condition is quiescence — zero
        outstanding upstream work.  Under an open-loop arrival process
        the queues legitimately run dry *between* requests, and without
        reservations every block would exit at the first idle gap.  The
        serving driver therefore pre-registers the full (deterministic)
        arrival schedule here before the engine runs: each entry stage's
        outstanding count is bumped by its total future arrivals, so the
        pipeline only reaches quiescence once every reserved arrival has
        been delivered *and* processed.
        """
        for stage, count in counts.items():
            if stage not in self.outstanding:
                raise ConfigurationError(
                    f"cannot reserve arrivals for unknown stage {stage!r}"
                )
            if count < 0:
                raise ConfigurationError(
                    f"arrival reservation for {stage!r} must be >= 0"
                )
            self.outstanding[stage] += count
            self.total_outstanding += count
            for watch in self._stage_watchers[stage]:
                watch.outstanding += count

    def release_arrivals(self, counts: dict[str, int]) -> None:
        """Return unused arrival reservations (the inverse of
        :meth:`expect_arrivals`).

        The serving driver calls this when an admission policy sheds an
        arrival: the request will never be delivered.  Dropping its
        reservation lets the persistent blocks reach quiescence once the
        admitted work drains, so a run that sheds its last arrivals
        still ends.
        """
        for stage, count in counts.items():
            if stage not in self.outstanding:
                raise ConfigurationError(
                    f"cannot release arrivals for unknown stage {stage!r}"
                )
            if count < 0:
                raise ConfigurationError(
                    f"arrival release for {stage!r} must be >= 0"
                )
            if count > self.outstanding[stage]:
                raise ExecutionError(
                    f"released more arrivals for {stage!r} than were "
                    "reserved"
                )
            self.outstanding[stage] -= count
            self.total_outstanding -= count
            for watch in self._stage_watchers[stage]:
                watch.outstanding -= count
        self._check_quiescence()

    def deliver_arrival(self, stage: str, item: object) -> None:
        """Inject one previously reserved arrival into ``stage``'s queue.

        The outstanding-work slot was already charged by
        :meth:`expect_arrivals`, so this only pushes the item and wakes
        any parked consumer — the open-loop counterpart of
        :meth:`insert_initial` (the host-to-device copy is charged by
        the serving driver, per request).
        """
        self.queue_set.push(stage, item, None)
        if self.request_tracker is not None:
            self.request_tracker.note_enqueued(item, self.device.engine.now)
        self._wake_for(stage)
        self._notify_peek_waiters((stage,))

    def note_stage_work(self, stage: str, tasks: int, busy_cycles: float) -> None:
        """Record executed tasks for per-stage statistics (includes tasks
        executed inline inside fused groups, which never hit a queue)."""
        stats = self.stage_stats[stage]
        stats.tasks += tasks
        stats.busy_cycles += busy_cycles

    def add_outputs(self, outputs: Iterable[object]) -> None:
        self.outputs.extend(outputs)

    @property
    def done(self) -> bool:
        return self.total_outstanding == 0

    # ------------------------------------------------------------------
    # Quiescence.
    # ------------------------------------------------------------------
    def is_quiescent(self, stages: Iterable[str]) -> bool:
        """True when no outstanding work can ever reach any of ``stages``.

        O(1) after the first call per watched set: a :class:`_WatchState`
        keeps the outstanding total of the set's upstream stages current
        (see its docstring), so this reduces to a counter test instead of
        re-running the reachability closure against every stage.
        """
        targets = tuple(stages)
        watch = self._watch_states.get(targets)
        if watch is None:
            watch = self._make_watch_state(targets)
        return watch.outstanding == 0

    def _make_watch_state(self, targets: tuple[str, ...]) -> _WatchState:
        can_reach = self.pipeline.can_reach
        upstream = frozenset(
            source for source in self.pipeline.stages
            if can_reach(source, targets)
        )
        watch = _WatchState(
            upstream,
            sum(self.outstanding[source] for source in upstream),
        )
        self._watch_states[targets] = watch
        for source in upstream:
            self._stage_watchers[source].append(watch)
        return watch

    def _check_quiescence(self) -> None:
        """Release waiters whose watched stages can receive no more work.

        Many parked blocks watch the same stage tuple, so the quiescence
        verdict is computed once per distinct tuple per check; nothing
        else in the loop mutates the counters it depends on (resumes are
        deferred through the event engine).
        """
        released = False
        if self._waiters:
            verdicts: dict[tuple[str, ...], bool] = {}
            schedule_call = self.device.engine.schedule_call
            for waiter in self._waiters:
                if waiter.cancelled:
                    continue
                stages = waiter.stages
                quiet = verdicts.get(stages)
                if quiet is None:
                    quiet = self.is_quiescent(stages)
                    verdicts[stages] = quiet
                if quiet:
                    waiter.cancelled = True
                    released = True
                    self._dead_waiters += 1
                    schedule_call(0.0, waiter.resume, None)
        if self._peek_waiters:
            remaining = []
            for stages, callback in self._peek_waiters:
                if self.is_quiescent(stages):
                    released = True
                    self.device.engine.schedule_call(0.0, callback, None)
                else:
                    remaining.append((stages, callback))
            self._peek_waiters = remaining
        if released or self.done:
            for listener in self.quiescence_listeners:
                listener()
        if released:
            self._waiters = deque(w for w in self._waiters if not w.cancelled)
            self._dead_waiters = 0

    # ------------------------------------------------------------------
    # Fetching (the task scheduler).
    # ------------------------------------------------------------------
    def _pick_queue(
        self, stages: tuple[str, ...], waiter_key: int
    ) -> Optional[str]:
        backlog = self._backlog
        if self.policy == "round_robin":
            # round_robin: rotate a per-block cursor over the watched stages.
            cursor = self._rr_cursor.get(waiter_key, 0)
            ordered = (
                stages[cursor % len(stages):] + stages[: cursor % len(stages)]
            )
            self._rr_cursor[waiter_key] = cursor + 1
            for s in ordered:
                if backlog[s]:
                    return s
            return None
        # deepest_first / fifo reduce to a fixed preference order per
        # watched tuple (stage depths are unique), memoised across calls.
        preference = self._order_cache.get(stages)
        if preference is None:
            depth = self._depth
            preference = tuple(
                sorted(
                    stages,
                    key=depth.__getitem__,
                    reverse=self.policy == "deepest_first",
                )
            )
            self._order_cache[stages] = preference
        for s in preference:
            if backlog[s]:
                return s
        return None

    def fetch_async(
        self,
        stages: tuple[str, ...],
        capacity_fn: Callable[[str], int],
        resume: Callable[[object], None],
        waiter_key: int = 0,
        sm_id: Optional[int] = None,
    ) -> None:
        """Deliver ``(stage, [QueuedItem,...], fetch_cost_cycles)`` to
        ``resume``, or ``None`` when the watched stages are quiescent.

        ``sm_id`` localises the pop under the distributed queue
        organisation.  Delivery is always asynchronous (via the event
        engine) so block programs see a uniform ordering whether or not
        work was ready.
        """
        chosen = self._pick_queue(tuple(stages), waiter_key)
        if chosen is not None:
            cap = capacity_fn(chosen)
            if self.batch_governor is not None:
                cap = self.batch_governor(chosen, cap)
            batch, cost = self.queue_set.pop(chosen, cap, sm_id)
            if batch:
                if self.request_tracker is not None:
                    self.request_tracker.note_dequeued(
                        batch, self.device.engine.now
                    )
                self.device.engine.schedule_call(
                    0.0, resume, (chosen, batch, cost)
                )
                return
        if self.is_quiescent(stages):
            self.device.engine.schedule_call(0.0, resume, None)
            return
        self._park(
            _Waiter(
                stages=tuple(stages),
                capacity_fn=capacity_fn,
                resume=resume,
                sm_id=sm_id,
            )
        )

    def _park(self, waiter: _Waiter) -> None:
        self._park_seq += 1
        waiter.seq = self._park_seq
        self._waiters.append(waiter)
        dq = self._watch_deques.get(waiter.stages)
        if dq is None:
            dq = self._watch_deques[waiter.stages] = deque()
            for stage in waiter.stages:
                self._stage_watch_tuples.setdefault(stage, []).append(
                    waiter.stages
                )
        dq.append(waiter)

    def wait_for_work(
        self, stages: tuple[str, ...], callback: Callable[[Optional[bool]], None]
    ) -> None:
        """Notify ``callback(True)`` when any of ``stages`` has queued work
        (without popping it), or ``callback(None)`` on quiescence.

        Used by host-driven (KBK) group runners, which drain queues in
        whole waves rather than per-block batches.
        """
        if any(self.queue_set.has_work(s) for s in stages):
            self.device.engine.schedule_call(0.0, callback, True)
            return
        if self.is_quiescent(stages):
            self.device.engine.schedule_call(0.0, callback, None)
            return
        self._peek_waiters.append((tuple(stages), callback))

    def drain_stage(self, stage: str):
        """Remove and return the queued items of ``stage`` (KBK waves).

        With a batch governor installed the drain is clamped to the
        governed capacity — an oversized wave is split across several
        waves, keeping per-wave latency bounded under backlog.
        """
        limit: Optional[int] = None
        if self.batch_governor is not None:
            backlog = self._backlog.get(stage, 0)
            if backlog:
                limit = max(1, self.batch_governor(stage, backlog))
        drained = self.queue_set.drain(stage, limit)
        if self.request_tracker is not None and drained:
            self.request_tracker.note_dequeued(
                drained, self.device.engine.now
            )
        return drained

    def _wake_for(self, stage: str) -> None:
        """Hand newly arrived work to parked blocks watching ``stage``.

        Only the watch tuples containing ``stage`` are touched — almost
        always one deque, whose order is the global park order
        restricted to the stage; several tuples are merged by park seq,
        which reproduces the same order.  Dead entries left behind in
        ``_waiters`` by earlier wakes are compacted once they outnumber
        the live waiters.
        """
        tuples = self._stage_watch_tuples.get(stage)
        if not tuples:
            return
        queue_set = self.queue_set
        backlog = self._backlog
        watch_deques = self._watch_deques
        poll_cycles = self.device.spec.queue_poll_cycles
        schedule_call = self.device.engine.schedule_call
        tracker = self.request_tracker
        governor = self.batch_governor
        woke = 0
        if len(tuples) == 1:
            dq = watch_deques[tuples[0]]
            while dq:
                if not backlog[stage]:
                    break
                waiter = dq[0]
                if waiter.cancelled:
                    dq.popleft()
                    continue
                cap = waiter.capacity_fn(stage)
                if governor is not None:
                    cap = governor(stage, cap)
                batch, cost = queue_set.pop(stage, cap, waiter.sm_id)
                if not batch:
                    break
                if tracker is not None:
                    tracker.note_dequeued(batch, self.device.engine.now)
                dq.popleft()
                waiter.cancelled = True
                woke += 1
                schedule_call(
                    poll_cycles, waiter.resume, (stage, batch, cost)
                )
        else:
            while backlog[stage]:
                best: Optional[_Waiter] = None
                best_dq = None
                for tup in tuples:
                    dq = watch_deques[tup]
                    while dq and dq[0].cancelled:
                        dq.popleft()
                    if dq and (best is None or dq[0].seq < best.seq):
                        best = dq[0]
                        best_dq = dq
                if best is None:
                    break
                cap = best.capacity_fn(stage)
                if governor is not None:
                    cap = governor(stage, cap)
                batch, cost = queue_set.pop(stage, cap, best.sm_id)
                if not batch:
                    break
                if tracker is not None:
                    tracker.note_dequeued(batch, self.device.engine.now)
                best_dq.popleft()
                best.cancelled = True
                woke += 1
                schedule_call(
                    poll_cycles, best.resume, (stage, batch, cost)
                )
        if woke:
            self._dead_waiters += woke
            if (
                self._dead_waiters > 32
                and self._dead_waiters * 2 > len(self._waiters)
            ):
                self._waiters = deque(
                    w for w in self._waiters if not w.cancelled
                )
                self._dead_waiters = 0

    # ------------------------------------------------------------------
    # Queue-operation cost model (pushes; fetch costs come with the batch).
    # ------------------------------------------------------------------
    def push_cost(self, children: Sequence[tuple[str, object]]) -> float:
        """Cost of pushing a mixed batch of children (one op per target).

        Under the distributed organisation producers write to their own
        SM's shard, so pushes see no cross-SM contention.
        """
        if not children:
            return 0.0
        contention = (
            0.0 if self.queue_mode == "distributed" else self.contention_level
        )
        by_target: dict[str, int] = {}
        for target, _item in children:
            by_target[target] = by_target.get(target, 0) + 1
        spec = self.device.spec
        item_bytes = self._item_bytes
        if len(by_target) == 1:
            target, count = by_target.popitem()
            return queue_op_cost(spec, item_bytes[target], count, contention)
        return sum(
            queue_op_cost(spec, item_bytes[target], count, contention)
            for target, count in by_target.items()
        )

    # ------------------------------------------------------------------
    def queue_stats(self) -> dict[str, QueueStats]:
        return self.queue_set.stats()

    @property
    def depth_series(self):
        """The queue set's always-on backlog ledger
        (:class:`repro.obs.depth.DepthSeries`) — current and peak queued
        items per stage.  The online adapter and the tuner's
        queue-pressure summary read from here."""
        return self.queue_set.depth

    def backlog(self, stages: Iterable[str]) -> int:
        """Items currently queued for the given stages."""
        return self.queue_set.depth.total(stages)
