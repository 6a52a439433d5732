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
* **Search cache** — with :attr:`TunerOptions.cache_dir` set, the
  canonical result of the whole search is memoized on disk as one entry
  of the ``evals`` namespace of :mod:`repro.store`, keyed by pipeline
  topology, device spec, trace, profile, search options and candidate
  list (:func:`~repro.core.tuner.cache.search_key`), but not the worker
  count.  A repeated search replays nothing; a first one races exactly
  as it would without a cache, shared bound included.

**Canonical normalization.**  Racing makes *runtime* outcomes timing
dependent: whether a slow candidate times out, completes under a loose
early deadline, or is cut by the dominance bound depends on when the
global best arrived.  The winner does not — any deadline derived from a
best-so-far is at least ``best_time_ms x TIMEOUT_SLACK``, so the true
best candidate always completes with its exact deterministic time.  The
search therefore rewrites every record after the fact as a pure
function of deterministic quantities (the final best, each completed
replay's exact elapsed cycles, each candidate's dominance bound): a
record is ``completed`` iff its cycles fit the final deadline, else
``dominated`` iff its bound exceeds it, else ``timeout``.  Reports are
byte-identical across worker counts and cache states.

Candidates are always evaluated with ``online_adaptation`` off (the
dominance bound relies on each group's work staying on its own SMs);
the winning plan re-enables it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ...gpu.device import GPUDevice
from ...gpu.engine import Engine
from ...gpu.specs import GPUSpec
from ...store import Store, open_store
from ..config import PipelineConfig
from ..errors import ConfigurationError, ExecutionError, VersaPipeError
from ..executor import ReplayExecutor
from ..pipeline import Pipeline
from ..stage import TaskCost
from ..trace import Trace
from .cache import search_key
from .handoff import SharedBest
from .pool import default_workers, map_shards, stride_shards
from .profiler import PipelineProfile, replay_placeholders
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

#: Headroom multiplier on every deadline: a candidate within 5 % of the
#: best so far still completes, so near-ties are measured, not pruned.
#: It must stay >= 1: below 1 the deadline undercuts the best time
#: itself, the true best can time out, and the canonical post-pass
#: (which assumes every deadline is at least the final best) would
#: misclassify records.
TIMEOUT_SLACK = 1.05


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
    #: Allow KBK groups inside hybrid plans.
    include_kbk_groups: bool = True
    #: Worker processes for the search; ``None`` means one per core.
    #: ``workers=1`` runs the classic in-process sequential loop.
    workers: Optional[int] = None
    #: Directory of the persistent search cache; ``None`` disables it.
    cache_dir: Optional[str] = None
    #: The dominance cut, both halves: skip candidates whose throughput
    #: lower bound already exceeds the running deadline, and stop a
    #: replay as soon as its undrained work provably cannot finish by
    #: the deadline.  Either way the candidate could not beat the best.
    dominance_pruning: bool = True

    def __post_init__(self) -> None:
        if self.max_configs < 1:
            raise ValueError(
                f"max_configs must be >= 1, got {self.max_configs}"
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
    #: Position in the canonical enumeration order.
    index: int = -1
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
    #: Search-cache traffic: one lookup per search, so one of the two
    #: is 1 with a cache and both are 0 without one.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Worker processes the search used, or would have used on a hit.
    workers: int = 1

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
        artifacts — cache traffic, worker count — are deliberately
        excluded.
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

    @property
    def num_pruned(self) -> int:
        return self.num_evaluated - self.num_completed

    def to_dict(self) -> dict:
        """The ``repro tune --report-json`` payload."""
        return {
            "evaluated": self.num_evaluated,
            "completed": self.num_completed,
            "pruned": self.num_pruned,
            "provenance": self.provenance(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "best_time_ms": self.best_time_ms,
            "best_config": self.best_config.describe(),
        }

    def summary(self) -> str:
        text = (
            f"tuned over {self.num_evaluated} configs "
            f"({self.num_completed} completed, {self.num_pruned} pruned: "
            f"{self.num_timeout} timeout, {self.num_dominated} dominated, "
            f"{self.num_invalid} invalid; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses; "
            f"{self.workers} workers): best "
            f"{self.best_time_ms:.3f} ms with {self.best_config.describe()}"
        )
        return text


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

    def __getstate__(self) -> dict:
        # Replays read only costs and children: a node without recorded
        # outputs hands out ``[None] * n_outputs``, and outputs never
        # reach simulated time.  So pool workers get the trace without
        # its sink payloads, while in-process shards keep replaying the
        # caller's trace object and the indexes built on it.
        state = self.__dict__.copy()
        state["trace"] = replace(self.trace, recorded_outputs={})
        return state


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
    :class:`DeadlineExceeded` from the hand-out itself, stopped at the
    current event's time, as a run stopped before its next event would
    report.

    Undrained work only shrinks, so the largest term computed at one
    hand-out bounds every later one; the terms are recomputed only when
    that stale bound would cross the deadline.  A stage whose tasks have
    all been handed out counts as exactly zero, whatever float residue
    the running subtraction left behind.
    """

    __slots__ = ("_left", "_tasks", "_limits", "_top", "_clock", "_deadline")

    def __init__(
        self,
        pipeline: Pipeline,
        spec: GPUSpec,
        profile: PipelineProfile,
        config: PipelineConfig,
        deadline_cycles: float,
        clock: Engine,
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
            raise DeadlineExceeded(self._deadline, now)


def _replay_config(
    pipeline: Pipeline,
    spec: GPUSpec,
    trace: Trace,
    config: PipelineConfig,
    deadline_cycles: float = math.inf,
    profile: Optional[PipelineProfile] = None,
) -> tuple[float, float]:
    """Replay one configuration; returns (ms, elapsed cycles).

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
    cut = None
    if profile is not None and math.isfinite(deadline_cycles):
        cut = _DrainCut(
            pipeline, spec, profile, config, deadline_cycles, device.engine
        )
    executor = ReplayExecutor(
        pipeline, trace, on_task=cut.on_task if cut is not None else None
    )
    engine = HybridEngine(pipeline, device, executor, config)
    engine.start(replay_placeholders(trace))

    device.run_engine(
        until=engine._complete,
        deadline=deadline_cycles if math.isfinite(deadline_cycles) else None,
    )
    now = float(device.engine.now)
    if now > deadline_cycles:
        # The clock passed the deadline — possibly on the very event that
        # completed the run.  The candidate misses its deadline either
        # way, and reports as a cut replay does.
        raise DeadlineExceeded(deadline_cycles, now)
    if not engine._complete():
        raise ExecutionError("replay deadlocked (internal error)")
    return device.elapsed_ms, now


def _evaluate_shard(
    payload: _SearchPayload, shard: list[tuple[int, PipelineConfig]]
) -> list[EvaluatedConfig]:
    """Race-to-deadline loop over one shard of the candidate list.

    The deadline shrinks with the shard-local best and the global
    :class:`SharedBest` bound published by every worker.  Runtime
    outcomes therefore depend on cross-worker timing; the caller's
    canonical post-pass rewrites them into a pure function of
    deterministic quantities.
    """
    pipeline = payload.pipeline
    spec = payload.spec
    options = payload.options
    shared = payload.shared_best
    profile = payload.profile if options.dominance_pruning else None
    records: list[EvaluatedConfig] = []
    best_ms = payload.seed_best_ms
    for index, config in shard:
        best_known = best_ms
        if shared is not None:
            best_known = min(best_known, shared.read())
        deadline = (
            best_known * TIMEOUT_SLACK * spec.clock_ghz * 1e6
            if math.isfinite(best_known)
            else math.inf
        )
        if (
            profile is not None
            and math.isfinite(deadline)
            and throughput_bound_cycles(pipeline, spec, profile, config)
            > deadline
        ):
            records.append(
                EvaluatedConfig(config, math.inf, note="dominated", index=index)
            )
            continue
        try:
            time_ms, cycles = _replay_config(
                pipeline,
                spec,
                payload.trace,
                config,
                deadline_cycles=deadline,
                profile=profile,
            )
        except DeadlineExceeded:
            records.append(
                EvaluatedConfig(config, math.inf, note="timeout", index=index)
            )
            continue
        except ConfigurationError as exc:
            records.append(
                EvaluatedConfig(
                    config, math.inf, note=f"invalid: {exc}", index=index
                )
            )
            continue
        records.append(
            EvaluatedConfig(config, time_ms, index=index, cycles=cycles)
        )
        if time_ms < best_ms:
            best_ms = time_ms
            if shared is not None:
                shared.publish(time_ms)
    return records


class OfflineTuner:
    """Searches the configuration space by replaying a recorded trace."""

    def __init__(
        self,
        pipeline: Pipeline,
        spec: GPUSpec,
        trace: Trace,
        profile: Optional[PipelineProfile] = None,
        options: Optional[TunerOptions] = None,
    ) -> None:
        self.pipeline = pipeline
        self.spec = spec
        self.trace = trace
        self.profile = profile
        self.options = options or TunerOptions()

    # ------------------------------------------------------------------
    def evaluate(
        self, config: PipelineConfig, deadline_cycles: float = math.inf
    ) -> float:
        """Replay one configuration; returns milliseconds.

        Raises :class:`DeadlineExceeded` when the run passes the deadline
        and :class:`ConfigurationError` for infeasible plans.
        """
        time_ms, _cycles = _replay_config(
            self.pipeline,
            self.spec,
            self.trace,
            config,
            deadline_cycles=deadline_cycles,
        )
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
                    include_kbk_groups=options.include_kbk_groups,
                ),
                options.max_configs,
            )
        )

    def tune(self) -> TunerReport:
        """Run the race-to-deadline search and return the best plan.

        With :attr:`TunerOptions.cache_dir` set, the canonical records
        of the whole search are read from (or, after a race, written to)
        one ``evals`` entry, so a repeated search replays nothing.
        """
        options = self.options
        candidates = self.candidates()
        workers = min(options.resolved_workers(), max(1, len(candidates)))
        store: Optional[Store] = None
        key = ""
        evaluated: Optional[list[EvaluatedConfig]] = None
        if options.cache_dir:
            store = open_store("evals", options.cache_dir)
            key = search_key(
                self.pipeline,
                self.spec,
                self.trace,
                self.profile,
                options,
                candidates,
            )
            evaluated = _from_entry(store.get(key), candidates)
        hit = evaluated is not None
        if evaluated is None:
            records = sorted(
                (
                    record
                    for shard in self._race(list(enumerate(candidates)), workers)
                    for record in shard
                ),
                key=lambda record: record.index,
            )
            evaluated = self._normalize(records)
            if store is not None:
                store.put(key, _to_entry(evaluated))
        cache_hits = int(hit)
        cache_misses = int(store is not None and not hit)

        best = _best(evaluated)
        if best is None:
            raise ConfigurationError(
                "the tuner found no feasible configuration"
            )
        return TunerReport(
            best_config=replace(best.config, online_adaptation=True),
            best_time_ms=best.time_ms,
            evaluated=evaluated,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def _race(
        self, items: list[tuple[int, PipelineConfig]], workers: int
    ) -> list[list[EvaluatedConfig]]:
        """Race every candidate on the full trace over the persistent
        pool (chunked shards)."""
        shared = SharedBest.create() if workers > 1 else None
        payload = _SearchPayload(
            pipeline=self.pipeline,
            spec=self.spec,
            trace=self.trace,
            profile=self.profile,
            options=self.options,
            shared_best=shared,
        )
        try:
            seed_results: list[list[EvaluatedConfig]] = []
            if workers > 1 and items:
                # Evaluate the first candidate (the coarsest grouping)
                # once, in-process, and seed every shard's deadline with
                # its time: shards prune hard from their very first
                # candidate even before the shared bound has anything
                # published.
                seed = _evaluate_shard(payload, items[:1])
                seed_results.append(seed)
                seed_times = [r.time_ms for r in seed if math.isfinite(r.time_ms)]
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
    ) -> list[EvaluatedConfig]:
        """Rewrite runtime records as the canonical deterministic report.

        The winner is exact for any racing schedule (every runtime
        deadline is at least ``best x TIMEOUT_SLACK``, so the true best always
        completes); every other record is reclassified from
        deterministic quantities only — completed iff its elapsed
        cycles fit the final deadline, else dominated iff its bound
        exceeds it, else timeout.
        """
        best = _best(records)
        best_ms = best.time_ms if best is not None else math.inf
        final_deadline = best_ms * TIMEOUT_SLACK * self.spec.clock_ghz * 1e6
        profile = self.profile if self.options.dominance_pruning else None

        evaluated: list[EvaluatedConfig] = []
        for record in records:
            if record.note.startswith("invalid"):
                evaluated.append(record)
                continue
            if math.isfinite(record.time_ms) and (
                record.cycles <= final_deadline or record is best
            ):
                evaluated.append(record)
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
                    record.config, math.inf, note=note, index=record.index
                )
            )
        return evaluated


def _best(records: list[EvaluatedConfig]) -> Optional[EvaluatedConfig]:
    """The fastest of ``records`` (in canonical order); ties go to the
    earliest candidate, as in the sequential search.  ``None`` when
    nothing completed."""
    return min(
        (record for record in records if math.isfinite(record.time_ms)),
        key=lambda record: record.time_ms,
        default=None,
    )


def _to_entry(evaluated: list[EvaluatedConfig]) -> list[list]:
    """The ``evals`` entry of a normalised search: one JSON row per
    candidate, ``[index, note, time_ms or None, cycles]``."""
    return [
        [
            e.index,
            e.note,
            e.time_ms if math.isfinite(e.time_ms) else None,
            e.cycles,
        ]
        for e in evaluated
    ]


def _from_entry(
    entry: object, candidates: list[PipelineConfig]
) -> Optional[list[EvaluatedConfig]]:
    """The normalised records of a memoized search, rebuilt against
    ``candidates``; ``None`` (a miss) when the entry does not fit them."""
    if not isinstance(entry, list) or len(entry) != len(candidates):
        return None
    evaluated = []
    for index, (config, row) in enumerate(zip(candidates, entry)):
        try:
            position, note, time_ms, cycles = row
            record = EvaluatedConfig(
                config,
                math.inf if time_ms is None else float(time_ms),
                note=note,
                index=position,
                cycles=float(cycles),
            )
        except (TypeError, ValueError):
            return None
        if position != index or not isinstance(note, str):
            return None
        evaluated.append(record)
    return evaluated
