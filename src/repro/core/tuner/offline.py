"""Offline auto-tuner (Figure 10), parallel and memoized.

Evaluates candidate configurations by *trace replay*: each candidate runs
on a fresh simulated device against the recorded task graph, under a
timeout equal to the best time found so far — exactly the paper's
``timeoutexec(mintime, config)`` scheme, which prunes slow configurations
cheaply.  The configuration with the shortest replayed execution becomes
the initial hybrid plan; online adaptation then refines it at run time.

Every candidate races once, on the full trace.  Four accelerations on
top of the paper's loop, none of which change the chosen plan:

* **Parallel race-to-deadline shards** — the candidate list is split
  into deterministic round-robin shards
  (:func:`~repro.core.tuner.pool.stride_shards`, several small shards
  per worker so the persistent pool load-balances), each evaluated
  sequentially inside a worker process.  Workers race against a
  *shared* best time (:class:`~repro.core.tuner.handoff.SharedBest`):
  every completed replay publishes its time, every candidate's deadline
  tightens from the global best, and a torn or corrupt shared value
  degrades to the shard-local deadline.  A canonical post-pass (below)
  keeps the merged report byte-identical for any worker count.
* **Dominance cut** — before replaying, each candidate's provable
  throughput lower bound (:func:`~repro.core.tuner.space
  .throughput_bound_cycles`, from the profiler's per-stage work and the
  per-model occupancy lane caps) is compared against the running
  deadline.  A candidate whose bound already exceeds it would time out
  anyway and is skipped without simulation (note ``"dominated"``).
* **In-flight dominance cut** — the same bound, applied during a
  replay to the work not yet handed out (:class:`_DrainCut`, sharing
  :func:`~repro.core.tuner.space.lane_limits` with the static bound):
  once ``now`` plus the time that work needs provably passes the
  deadline, the replay stops early with the same
  :class:`DeadlineExceeded` (note ``"timeout"``) it would have reached
  at the deadline.
* **Profile cache** — with :attr:`TunerOptions.cache_dir` set, every
  replay outcome is memoized in memory and on disk keyed by pipeline
  topology, device spec, trace and configuration (the ``evals``
  namespace of :mod:`repro.store`, keyed by
  :mod:`~repro.core.tuner.cache`); repeated searches replay nothing.
  Cached searches pin their deadlines to the deterministic shard-local
  schedule (the shared bound is not consulted), so a warm rerun looks
  up exactly the cells a cold run stored and misses nothing.

**Canonical normalization.**  Racing makes *runtime* outcomes timing
dependent: whether a slow candidate times out, completes under a loose
early deadline, or is cut by the dominance bound depends on when the
global best arrived.  The winner does not — any deadline derived from a
best-so-far is at least ``best_time_ms x timeout_slack``, so the true
best candidate always completes with its exact deterministic time.  The
search therefore rewrites every record after the fact as a pure
function of deterministic quantities (the final best, each completed
replay's exact elapsed cycles, each candidate's dominance bound): a
record is ``completed`` iff its cycles fit the final deadline, else
``dominated`` iff its bound exceeds it, else ``timeout``.  Reports are
byte-identical across worker counts.

Candidates are always evaluated with ``online_adaptation`` off (the
dominance bound relies on each group's work staying on its own SMs);
the winning plan re-enables it per :attr:`TunerOptions.online_adaptation`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ...gpu.device import GPUDevice
from ...gpu.engine import Engine
from ...gpu.specs import GPUSpec
from ...obs.events import EventBus, TunerEvaluation, TunerSearchCompleted
from ...store import StoreStats, open_store
from ..config import PipelineConfig
from ..errors import ConfigurationError, ExecutionError, VersaPipeError
from ..executor import ReplayExecutor
from ..pipeline import Pipeline
from ..stage import TaskCost
from ..trace import Trace
from .cache import CachedEvaluation, eval_key, lookup, space_key
from .handoff import SharedBest
from .pool import default_workers, map_shards, stride_shards
from .profiler import (
    PipelineProfile,
    QueuePressure,
    queue_pressure,
    replay_placeholders,
)
from .space import (
    BOUND_SAFETY,
    enumerate_configs,
    lane_limits,
    throughput_bound_cycles,
)

#: Stride shards dispatched per pool worker: small chunks let the
#: persistent pool rebalance when shards finish at different speeds
#: (candidates pruned by the shared deadline cost almost nothing).
CHUNKS_PER_WORKER = 4


class DeadlineExceeded(VersaPipeError):
    """A replayed candidate cannot finish by its deadline.

    ``stopped_at`` is the engine clock when the replay stopped: past
    ``deadline_cycles`` when the clock ran out, usually well before it
    when the in-flight dominance cut proved the rest of the run too
    slow.
    """

    def __init__(self, deadline_cycles: float, stopped_at: float) -> None:
        super().__init__(deadline_cycles, stopped_at)
        self.deadline_cycles = deadline_cycles
        self.stopped_at = stopped_at

    def __str__(self) -> str:
        return (
            f"config exceeded {self.deadline_cycles:.0f} cycles "
            f"(stopped at {self.stopped_at:.0f})"
        )


@dataclass
class TunerOptions:
    """Budget knobs for the offline search."""

    #: Maximum number of candidate configurations to evaluate.
    max_configs: int = 160
    #: SM-mapping variants per grouping (proportional + transfers).
    max_sm_variants: int = 6
    #: Block maps per fine group.
    max_block_maps: int = 6
    #: Allow KBK groups inside hybrid plans.
    include_kbk_groups: bool = True
    #: Headroom multiplier on the timeout (1.0 = strict better-than-best).
    timeout_slack: float = 1.05
    #: Enable online adaptation in the final configuration.
    online_adaptation: bool = True
    #: Worker processes for the search; ``None`` means one per core.
    #: ``workers=1`` runs the classic in-process sequential loop.
    workers: Optional[int] = None
    #: Directory of the persistent profile cache; ``None`` disables it.
    cache_dir: Optional[str] = None
    #: The dominance cut, both halves: skip candidates whose throughput
    #: lower bound already exceeds the running deadline, and stop a
    #: replay as soon as its undrained work provably cannot finish by
    #: the deadline.  Either way the candidate could not beat the best.
    dominance_pruning: bool = True

    def __post_init__(self) -> None:
        # A slack below 1 lets the deadline undercut the best time itself,
        # so the true best can time out: the search would silently return
        # a worse plan, and the canonical post-pass (which assumes every
        # deadline is at least the final best) would misclassify records.
        if self.max_configs < 1:
            raise ValueError(
                f"max_configs must be >= 1, got {self.max_configs}"
            )
        if not self.timeout_slack >= 1.0:
            raise ValueError(
                f"timeout_slack must be >= 1, got {self.timeout_slack}"
            )

    def resolved_workers(self) -> int:
        if self.workers is None:
            return default_workers()
        return max(1, self.workers)


#: Canonical prune-provenance categories (besides ``completed``).
PRUNE_NOTES = ("timeout", "dominated")


@dataclass
class EvaluatedConfig:
    config: PipelineConfig
    time_ms: float  # math.inf when timed out, dominated or invalid
    note: str = ""
    #: Backlog summary of the replay; None when the run never finished.
    pressure: Optional[QueuePressure] = None
    #: Position in the canonical enumeration order.
    index: int = -1
    #: True when the outcome came from the profile cache, not a replay.
    cached: bool = False
    #: Exact elapsed engine cycles of a completed replay (0.0 when the
    #: run never finished).  The canonical post-pass compares these
    #: against the final deadline in the cycle domain.
    cycles: float = 0.0

    @property
    def outcome(self) -> str:
        """``completed``, ``timeout``, ``dominated`` or ``invalid``."""
        if math.isfinite(self.time_ms):
            return "completed"
        if self.note in PRUNE_NOTES:
            return self.note
        return "invalid"


@dataclass
class TunerReport:
    best_config: PipelineConfig
    best_time_ms: float
    evaluated: list[EvaluatedConfig] = field(default_factory=list)
    #: Profile-cache traffic (both zero when the cache is disabled).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Worker processes the search actually used.
    workers: int = 1
    #: Per-dispatch profile-cache counter deltas (zeros when disabled).
    cache_stats: StoreStats = field(default_factory=StoreStats)

    @property
    def num_evaluated(self) -> int:
        return len(self.evaluated)

    @property
    def num_completed(self) -> int:
        return sum(1 for e in self.evaluated if math.isfinite(e.time_ms))

    @property
    def num_timeout(self) -> int:
        return sum(1 for e in self.evaluated if e.note == "timeout")

    @property
    def num_dominated(self) -> int:
        return sum(1 for e in self.evaluated if e.note == "dominated")

    @property
    def num_invalid(self) -> int:
        return sum(1 for e in self.evaluated if e.outcome == "invalid")

    def provenance(self) -> dict[str, int]:
        """Canonical per-candidate prune provenance; sums to
        :attr:`num_evaluated`.

        ``prefix-eliminated`` is always 0: the prefix-racing rung that
        produced it is gone, and the key stays only for readers that
        still index it (the repository benchmark's ``tune_race``).
        """
        return {
            "completed": self.num_completed,
            "timeout": self.num_timeout,
            "dominated": self.num_dominated,
            "prefix-eliminated": 0,
            "invalid": self.num_invalid,
        }

    def canonical_payload(self) -> dict:
        """The deterministic view of the search, for byte-identity checks.

        Contains exactly the quantities the canonical post-pass pins
        for any worker count: the winner, and each candidate's index,
        outcome and (for completed candidates) exact time.  Runtime
        artifacts — cache traffic, ``cached`` flags, worker count — are
        deliberately excluded.
        """
        return {
            "best_time_ms": self.best_time_ms,
            "best_config": self.best_config.describe(),
            "evaluated": [
                {
                    "index": e.index,
                    "outcome": e.outcome,
                    "time_ms": e.time_ms if math.isfinite(e.time_ms) else None,
                    "note": e.note,
                }
                for e in self.evaluated
            ],
        }

    def summary(self) -> str:
        pruned = self.num_evaluated - self.num_completed
        text = (
            f"tuned over {self.num_evaluated} configs "
            f"({self.num_completed} completed, {pruned} pruned: "
            f"{self.num_timeout} timeout, {self.num_dominated} dominated, "
            f"{self.num_invalid} invalid; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses; "
            f"{self.workers} workers): best "
            f"{self.best_time_ms:.3f} ms with {self.best_config.describe()}"
        )
        return text


@dataclass
class _ShardResult:
    records: list[EvaluatedConfig]
    cache_stats: StoreStats = field(default_factory=StoreStats)


@dataclass
class _SearchPayload:
    """Everything a worker needs to evaluate a shard of the search."""

    pipeline: Pipeline
    spec: GPUSpec
    trace: Trace
    profile: Optional[PipelineProfile]
    options: TunerOptions
    #: Deadline seed shared by every shard: the first candidate's time
    #: (the coarsest grouping), evaluated once up front so parallel
    #: shards prune nearly as hard as the sequential loop from their
    #: very first candidate.  ``inf`` disables seeding (sequential mode).
    seed_best_ms: float = math.inf
    #: Cross-worker shared best bound (pickles by segment name);
    #: ``None`` in sequential mode.
    shared_best: Optional[SharedBest] = None
    #: Space key of the profile cache for the trace, computed once in
    #: the parent; ``None`` when the cache is disabled.
    cache_space_key: Optional[str] = None


class _DrainCut:
    """The in-flight half of the dominance cut, for one replay.

    Keeps each stage's work not yet handed out: the profile's
    ``total_cycles`` minus the cost of every task the
    :class:`~repro.core.executor.ReplayExecutor` has handed out (counted
    per thread here; each lane limit's coefficient folds in
    ``threads_per_item``).  Undrained work can only start at or after
    ``now``, so by the argument of :func:`~repro.core.tuner.space
    .throughput_bound_cycles` the run cannot end before::

        now + BOUND_SAFETY * (1 - l1_bonus) * remaining / (|SMs| * lane_cap)

    for every lane limit.  Once that passes the deadline the cut raises
    the engine's ``until_flag``, which stops the run before its next
    event.

    Undrained work only shrinks, so the largest term computed at one
    hand-out bounds every later one; the terms are recomputed only when
    that stale bound would cross the deadline.  A stage whose tasks have
    all been handed out counts as exactly zero, whatever float residue
    the running subtraction left behind.
    """

    __slots__ = (
        "_left", "_tasks", "_limits", "_top", "_clock", "_deadline",
        "_flag",
    )

    def __init__(
        self,
        pipeline: Pipeline,
        spec: GPUSpec,
        profile: PipelineProfile,
        config: PipelineConfig,
        deadline_cycles: float,
        clock: Engine,
        flag: list[bool],
    ) -> None:
        discount = max(0.0, 1.0 - spec.l1_locality_bonus)
        self._left = {name: 0.0 for name in pipeline.stage_names}
        self._tasks = {name: 0 for name in pipeline.stage_names}
        for name, stage in profile.stages.items():
            self._left[name] = stage.total_cycles
            self._tasks[name] = stage.tasks
        self._limits = [
            tuple(
                (
                    s,
                    BOUND_SAFETY
                    * discount
                    * pipeline.stage(s).threads_per_item
                    / (num_sms * cap),
                )
                for s in stages
                if s in profile.stages
            )
            for stages, num_sms, cap in lane_limits(pipeline, spec, config)
        ]
        self._top = math.inf  # the first hand-out computes the terms
        self._clock = clock
        self._deadline = deadline_cycles
        self._flag = flag

    def on_task(self, stage: str, cost: TaskCost) -> None:
        self._left[stage] -= cost.cycles_per_thread
        self._tasks[stage] -= 1
        now = self._clock.now
        if now + self._top > self._deadline:
            self._tighten(now)

    def _tighten(self, now: float) -> None:
        left = self._left
        tasks = self._tasks
        top = 0.0
        for terms in self._limits:
            bound = 0.0
            for s, coefficient in terms:
                if tasks[s] > 0:
                    bound += coefficient * left[s]
            if bound > top:
                top = bound
        self._top = top
        if now + top > self._deadline:
            self._flag[0] = True
            self._deadline = math.inf  # fired once; later hand-outs skip


def _replay_config(
    pipeline: Pipeline,
    spec: GPUSpec,
    trace: Trace,
    config: PipelineConfig,
    deadline_cycles: float = math.inf,
    profile: Optional[PipelineProfile] = None,
) -> tuple[float, float, QueuePressure]:
    """Replay one configuration; returns (ms, elapsed cycles, pressure).

    Raises :class:`DeadlineExceeded` when the run's elapsed cycles pass
    the deadline and :class:`ConfigurationError` for infeasible plans.
    With ``profile`` — the profile of ``trace`` itself — and a finite
    deadline, the in-flight dominance cut (:class:`_DrainCut`) stops the
    replay as soon as its undrained work provably cannot finish in time;
    it raises the same :class:`DeadlineExceeded`, with an earlier
    ``stopped_at``.
    """
    from ..models.hybrid import HybridEngine  # local import: avoid cycle

    device = GPUDevice(spec)
    stop = [False]
    cut = None
    if profile is not None and math.isfinite(deadline_cycles):
        cut = _DrainCut(
            pipeline, spec, profile, config, deadline_cycles, device.engine,
            stop,
        )
    executor = ReplayExecutor(
        pipeline, trace, on_task=cut.on_task if cut is not None else None
    )
    engine = HybridEngine(pipeline, device, executor, config)
    engine.start(replay_placeholders(trace))

    device.engine.run(
        until=engine._complete,
        deadline=deadline_cycles if math.isfinite(deadline_cycles) else None,
        until_flag=stop if cut is not None else None,
    )
    now = float(device.engine.now)
    if stop[0] or now > deadline_cycles:
        # The cut proved the run too slow, or the clock passed the
        # deadline — possibly on the very event that completed the run.
        # Either way the candidate misses its deadline, and both stops
        # report alike, so arming the cut never changes an outcome.
        raise DeadlineExceeded(deadline_cycles, now)
    if not engine._complete():
        raise ExecutionError("replay deadlocked (internal error)")
    return (
        device.elapsed_ms,
        now,
        queue_pressure(engine.ctx.depth_series),
    )


def _evaluate_shard(
    payload: _SearchPayload, shard: list[tuple[int, PipelineConfig]]
) -> _ShardResult:
    """Race-to-deadline loop over one shard of the candidate list.

    The deadline shrinks with the shard-local best *and* — when no
    profile cache is configured — the global :class:`SharedBest` bound
    published by every worker.  Runtime outcomes therefore depend on
    cross-worker timing; the caller's canonical post-pass rewrites them
    into a pure function of deterministic quantities.  With a cache the
    shared bound is ignored so lookups and stores follow the
    deterministic shard-local schedule: a warm rerun reads exactly the
    cells a cold run wrote and misses nothing.
    """
    pipeline = payload.pipeline
    spec = payload.spec
    options = payload.options
    space = payload.cache_space_key or ""
    cache = (
        open_store("evals", options.cache_dir)
        if options.cache_dir and space
        else None
    )
    stats_before = cache.stats() if cache is not None else StoreStats()
    shared = payload.shared_best if cache is None else None
    result = _ShardResult(records=[])
    best_ms = payload.seed_best_ms
    for index, config in shard:
        best_known = best_ms
        if shared is not None:
            best_known = min(best_known, shared.read())
        deadline = (
            best_known * options.timeout_slack * spec.clock_ghz * 1e6
            if math.isfinite(best_known)
            else math.inf
        )
        if (
            options.dominance_pruning
            and payload.profile is not None
            and math.isfinite(deadline)
        ):
            bound = throughput_bound_cycles(
                pipeline, spec, payload.profile, config
            )
            if bound > deadline:
                result.records.append(
                    EvaluatedConfig(
                        config, math.inf, note="dominated", index=index
                    )
                )
                continue
        if cache is not None:
            key = eval_key(space, config)
            entry = lookup(cache, key, deadline_cycles=deadline)
            if entry is not None:
                record = _record_from_cache(config, index, entry)
                result.records.append(record)
                if record.time_ms < best_ms:
                    best_ms = record.time_ms
                continue
        try:
            time_ms, cycles, pressure = _replay_config(
                pipeline,
                spec,
                payload.trace,
                config,
                deadline_cycles=deadline,
                profile=(
                    payload.profile if options.dominance_pruning else None
                ),
            )
        except DeadlineExceeded:
            result.records.append(
                EvaluatedConfig(config, math.inf, note="timeout", index=index)
            )
            if cache is not None:
                cache.put(
                    key,
                    CachedEvaluation(
                        status="timeout", exceeded_cycles=deadline
                    ).to_payload(),
                )
            continue
        except ConfigurationError as exc:
            result.records.append(
                EvaluatedConfig(
                    config, math.inf, note=f"invalid: {exc}", index=index
                )
            )
            if cache is not None:
                cache.put(
                    key,
                    CachedEvaluation(
                        status="invalid", note=f"invalid: {exc}"
                    ).to_payload(),
                )
            continue
        result.records.append(
            EvaluatedConfig(
                config, time_ms, pressure=pressure, index=index, cycles=cycles
            )
        )
        if cache is not None:
            cache.put(
                key,
                CachedEvaluation(
                    status="completed",
                    time_ms=time_ms,
                    pressure=pressure,
                    cycles=cycles,
                ).to_payload(),
            )
        if time_ms < best_ms:
            best_ms = time_ms
            if shared is not None:
                shared.publish(time_ms)
    if cache is not None:
        result.cache_stats = cache.stats() - stats_before
    return result


def _record_from_cache(
    config: PipelineConfig, index: int, entry: CachedEvaluation
) -> EvaluatedConfig:
    if entry.status == "completed":
        return EvaluatedConfig(
            config,
            entry.time_ms,
            pressure=entry.pressure,
            index=index,
            cached=True,
            cycles=entry.cycles,
        )
    if entry.status == "timeout":
        return EvaluatedConfig(
            config, math.inf, note="timeout", index=index, cached=True
        )
    return EvaluatedConfig(
        config,
        math.inf,
        note=entry.note or "invalid: cached",
        index=index,
        cached=True,
    )


class OfflineTuner:
    """Searches the configuration space by replaying a recorded trace."""

    def __init__(
        self,
        pipeline: Pipeline,
        spec: GPUSpec,
        trace: Trace,
        profile: Optional[PipelineProfile] = None,
        options: Optional[TunerOptions] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.pipeline = pipeline
        self.spec = spec
        self.trace = trace
        self.profile = profile
        self.options = options or TunerOptions()
        self.bus = bus
        #: Queue-pressure summary of the most recent completed replay.
        self.last_pressure: Optional[QueuePressure] = None

    # ------------------------------------------------------------------
    def evaluate(
        self, config: PipelineConfig, deadline_cycles: float = math.inf
    ) -> float:
        """Replay one configuration; returns milliseconds.

        Raises :class:`DeadlineExceeded` when the run passes the deadline
        and :class:`ConfigurationError` for infeasible plans.
        """
        time_ms, _cycles, pressure = _replay_config(
            self.pipeline,
            self.spec,
            self.trace,
            config,
            deadline_cycles=deadline_cycles,
        )
        self.last_pressure = pressure
        return time_ms

    # ------------------------------------------------------------------
    def candidates(self) -> list[PipelineConfig]:
        """The budgeted candidate list, in canonical enumeration order."""
        options = self.options
        return list(
            itertools.islice(
                enumerate_configs(
                    self.pipeline,
                    self.spec,
                    profile=self.profile,
                    max_sm_variants=options.max_sm_variants,
                    max_block_maps=options.max_block_maps,
                    include_kbk_groups=options.include_kbk_groups,
                ),
                options.max_configs,
            )
        )

    def tune(self) -> TunerReport:
        """Run the race-to-deadline search and return the best plan."""
        options = self.options
        candidates = self.candidates()
        workers = min(options.resolved_workers(), max(1, len(candidates)))
        results = self._race(list(enumerate(candidates)), workers)
        records = sorted(
            (r for shard in results for r in shard.records),
            key=lambda record: record.index,
        )
        cache_stats = StoreStats()
        for shard in results:
            cache_stats = cache_stats + shard.cache_stats

        evaluated, best, best_ms = self._normalize(records)
        self._emit_events(
            evaluated, best_ms, cache_stats.total_hits, cache_stats.misses,
            workers,
        )
        if best is None:
            raise ConfigurationError(
                "the tuner found no feasible configuration"
            )
        final = replace(best, online_adaptation=options.online_adaptation)
        return TunerReport(
            best_config=final,
            best_time_ms=best_ms,
            evaluated=evaluated,
            cache_hits=cache_stats.total_hits,
            cache_misses=cache_stats.misses,
            workers=workers,
            cache_stats=cache_stats,
        )

    # ------------------------------------------------------------------
    def _race(
        self, items: list[tuple[int, PipelineConfig]], workers: int
    ) -> list[_ShardResult]:
        """Race every candidate on the full trace over the persistent
        pool (chunked shards)."""
        options = self.options
        space = None
        if options.cache_dir:
            space = space_key(self.pipeline, self.spec, self.trace)
        shared = SharedBest.create() if workers > 1 else None
        payload = _SearchPayload(
            pipeline=self.pipeline,
            spec=self.spec,
            trace=self.trace,
            profile=self.profile,
            options=options,
            shared_best=shared,
            cache_space_key=space,
        )
        try:
            seed_results: list[_ShardResult] = []
            if workers > 1 and items:
                # Evaluate the first candidate (the coarsest grouping)
                # once, in-process, and seed every shard's deadline with
                # its time: shards prune hard from their very first
                # candidate even before the shared bound has anything
                # published.
                seed = _evaluate_shard(payload, items[:1])
                seed_results.append(seed)
                seed_times = [
                    r.time_ms
                    for r in seed.records
                    if math.isfinite(r.time_ms)
                ]
                if seed_times:
                    payload.seed_best_ms = min(seed_times)
                    if shared is not None:
                        shared.publish(payload.seed_best_ms)
                items = items[1:]
            chunks = (
                min(len(items), workers * CHUNKS_PER_WORKER)
                if workers > 1
                else 1
            )
            shards = stride_shards(items, max(1, chunks))
            return seed_results + map_shards(
                _evaluate_shard, payload, shards, workers
            )
        finally:
            if shared is not None:
                shared.release()

    def _normalize(
        self, records: list[EvaluatedConfig]
    ) -> tuple[list[EvaluatedConfig], Optional[PipelineConfig], float]:
        """Rewrite runtime records as the canonical deterministic report.

        The winner is exact for any racing schedule (every runtime
        deadline is at least ``best x slack``, so the true best always
        completes); every other record is reclassified from
        deterministic quantities only — completed iff its elapsed
        cycles fit the final deadline, else dominated iff its bound
        exceeds it, else timeout.
        """
        options = self.options
        best: Optional[PipelineConfig] = None
        best_index = -1
        best_ms = math.inf
        for record in records:  # canonical order: ties go to the
            if record.time_ms < best_ms:  # earliest candidate, as in
                best = record.config  # the sequential search
                best_ms = record.time_ms
                best_index = record.index
        final_deadline = (
            best_ms * options.timeout_slack * self.spec.clock_ghz * 1e6
        )
        profile = self.profile if options.dominance_pruning else None

        evaluated: list[EvaluatedConfig] = []
        for record in records:
            if record.note.startswith("invalid"):
                evaluated.append(record)
                continue
            if math.isfinite(record.time_ms) and (
                record.cycles <= final_deadline or record.index == best_index
            ):
                evaluated.append(record)
                if record.pressure is not None:
                    self.last_pressure = record.pressure
                continue
            note = "timeout"
            if profile is not None:
                bound = throughput_bound_cycles(
                    self.pipeline, self.spec, profile, record.config
                )
                if bound > final_deadline:
                    note = "dominated"
            evaluated.append(
                EvaluatedConfig(
                    record.config,
                    math.inf,
                    note=note,
                    index=record.index,
                    cached=record.cached,
                )
            )
        return evaluated, best, best_ms

    # ------------------------------------------------------------------
    def _emit_events(
        self,
        evaluated: list[EvaluatedConfig],
        best_ms: float,
        cache_hits: int,
        cache_misses: int,
        workers: int,
    ) -> None:
        if self.bus is None:
            return
        for record in evaluated:
            self.bus.emit(
                TunerEvaluation(
                    t=float(record.index),
                    index=record.index,
                    config=record.config.describe(),
                    time_ms=record.time_ms,
                    outcome=record.outcome,
                    cached=record.cached,
                )
            )
        self.bus.emit(
            TunerSearchCompleted(
                t=float(len(evaluated)),
                evaluated=len(evaluated),
                completed=sum(
                    1 for e in evaluated if math.isfinite(e.time_ms)
                ),
                timeouts=sum(1 for e in evaluated if e.note == "timeout"),
                dominated=sum(1 for e in evaluated if e.note == "dominated"),
                invalid=sum(1 for e in evaluated if e.outcome == "invalid"),
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                workers=workers,
                best_time_ms=best_ms,
            )
        )
