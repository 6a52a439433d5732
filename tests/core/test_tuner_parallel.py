"""Parallel sharded search: determinism, events, dominance soundness."""

import functools
import json
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.tuner.handoff import SharedBest
from repro.core.tuner.offline import (
    DeadlineExceeded,
    OfflineTuner,
    TunerOptions,
    _evaluate_shard,
    _replay_config,
    _SearchPayload,
)
from repro.core.tuner.pool import default_workers, stride_shards
from repro.core.tuner.profiler import profile_pipeline
from repro.core.tuner.space import throughput_bound_cycles
from repro.gpu.specs import K20C
from repro.obs.events import EventBus, TunerEvaluation, TunerSearchCompleted

from .conftest import toy_pipeline


class TestStrideShards:
    def test_empty(self):
        assert stride_shards([], 4) == []

    def test_single_worker_is_identity(self):
        items = list(range(7))
        assert stride_shards(items, 1) == [items]

    def test_round_robin_decomposition(self):
        items = list(range(10))
        shards = stride_shards(items, 3)
        assert shards == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
        assert sorted(x for shard in shards for x in shard) == items

    def test_more_workers_than_items(self):
        shards = stride_shards([1, 2], 8)
        assert shards == [[1], [2]]

    def test_all_shards_nonempty(self):
        for n in range(1, 12):
            for workers in range(1, 6):
                shards = stride_shards(list(range(n)), workers)
                assert all(shards)
                assert len(shards) <= workers

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            stride_shards([1], 0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


def _make_tuner(workers, budget=40, bus=None, dominance=True):
    pipe = toy_pipeline()
    initial = {"doubler": list(range(1, 200))}
    profile, trace = profile_pipeline(pipe, K20C, initial)
    return OfflineTuner(
        pipe,
        K20C,
        trace,
        profile=profile,
        options=TunerOptions(
            max_configs=budget,
            workers=workers,
            dominance_pruning=dominance,
        ),
        bus=bus,
    )


class TestWorkerInvariance:
    def test_best_identical_across_worker_counts(self):
        seq = _make_tuner(workers=1).tune()
        par = _make_tuner(workers=4).tune()
        assert seq.best_config == par.best_config
        assert seq.best_time_ms == par.best_time_ms

    def test_evaluated_ordering_identical(self):
        seq = _make_tuner(workers=1).tune()
        par = _make_tuner(workers=4).tune()
        assert seq.num_evaluated == par.num_evaluated
        assert [e.config.describe() for e in seq.evaluated] == [
            e.config.describe() for e in par.evaluated
        ]
        # Merged records must come back in canonical enumeration order.
        assert [e.index for e in par.evaluated] == list(
            range(par.num_evaluated)
        )

    def test_workers_recorded_on_report(self):
        report = _make_tuner(workers=4).tune()
        assert 1 <= report.workers <= 4

    def test_completed_times_agree_where_both_finished(self):
        """A config that completes under both worker counts must get the
        exact same simulated time (replay is deterministic)."""
        seq = _make_tuner(workers=1).tune()
        par = _make_tuner(workers=3).tune()
        for a, b in zip(seq.evaluated, par.evaluated):
            if math.isfinite(a.time_ms) and math.isfinite(b.time_ms):
                assert a.time_ms == b.time_ms


class TestTunerEvents:
    def test_events_emitted_on_bus(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        report = _make_tuner(workers=2, bus=bus).tune()
        evals = [e for e in events if isinstance(e, TunerEvaluation)]
        done = [e for e in events if isinstance(e, TunerSearchCompleted)]
        assert len(evals) == report.num_evaluated
        assert len(done) == 1
        assert done[0].evaluated == report.num_evaluated
        assert done[0].completed == report.num_completed
        assert done[0].best_time_ms == report.best_time_ms
        assert done[0].workers == report.workers

    def test_no_bus_no_crash(self):
        report = _make_tuner(workers=1, bus=None).tune()
        assert math.isfinite(report.best_time_ms)


PACKAGED_WORKLOADS = (
    "cfd",
    "face_detection",
    "ldpc",
    "pyramid",
    "rasterization",
    "reyes",
)


@functools.lru_cache(maxsize=None)
def _quick_space(name, budget=24):
    """(pipeline, trace, profile, first ``budget`` candidates) of a
    packaged workload at quick parameters on K20c."""
    from repro.harness.runner import get_workload

    spec = get_workload(name)
    params = spec.quick_params()
    pipeline = spec.build_pipeline(params)
    profile, trace = profile_pipeline(
        pipeline, K20C, spec.initial_items(params)
    )
    tuner = OfflineTuner(
        pipeline, K20C, trace, profile=profile,
        options=TunerOptions(max_configs=budget),
    )
    return pipeline, trace, profile, tuner.candidates()


@functools.lru_cache(maxsize=None)
def _exact_replay(name, index, budget=24):
    """Uncut, deadline-free replay of one quick-space candidate, or
    ``None`` when the candidate is infeasible."""
    pipeline, trace, _profile, candidates = _quick_space(name, budget)
    try:
        return _replay_config(pipeline, K20C, trace, candidates[index])
    except ConfigurationError:
        return None


class TestDominanceSoundness:
    def test_bound_never_exceeds_replayed_time(self):
        """The throughput bound must lower-bound the true replay on every
        candidate (checked exhaustively on a small space) — otherwise the
        dominance cut could discard the optimum."""
        tuner = _make_tuner(workers=1, budget=25)
        checked = 0
        for config in tuner.candidates():
            bound = throughput_bound_cycles(
                tuner.pipeline, tuner.spec, tuner.profile, config
            )
            time_ms = tuner.evaluate(config)  # no deadline: true time
            elapsed_cycles = time_ms * tuner.spec.clock_ghz * 1e6
            assert bound <= elapsed_cycles, config.describe()
            checked += 1
        assert checked == 25

    def test_dominance_preserves_best(self):
        """Enabling the cut must not change the chosen plan or its time."""
        with_cut = _make_tuner(workers=1, dominance=True).tune()
        without = _make_tuner(workers=1, dominance=False).tune()
        assert with_cut.best_config == without.best_config
        assert with_cut.best_time_ms == without.best_time_ms

    def test_provenance_partitions_evaluated(self):
        report = _make_tuner(workers=1).tune()
        assert sum(report.provenance().values()) == report.num_evaluated
        assert report.num_dominated + report.num_timeout + \
            report.num_invalid + report.num_completed == report.num_evaluated
        assert report.provenance()["prefix-eliminated"] == 0

    def test_dominance_fires_on_real_workload(self):
        """On the Reyes pipeline (heterogeneous per-stage work) the bound
        actually prunes candidates, and still returns the same plan."""
        from repro.harness.runner import tune_workload
        from repro.workloads import reyes

        params = reyes.ReyesParams(num_base_patches=16, split_threshold=48.0)
        opts = dict(max_configs=80, include_kbk_groups=False, workers=1)
        cut = tune_workload(
            "reyes", K20C, params,
            options=TunerOptions(dominance_pruning=True, **opts),
        ).report
        plain = tune_workload(
            "reyes", K20C, params,
            options=TunerOptions(dominance_pruning=False, **opts),
        ).report
        assert cut.best_config == plain.best_config
        assert cut.best_time_ms == plain.best_time_ms
        assert cut.num_dominated > 0

    # In-flight half of the cut: it stops only replays that would miss
    # their deadline anyway, and stops them early.

    def test_exact_deadline_never_cut(self):
        """Exhaustive soundness: under a deadline equal to its own exact
        elapsed cycles, every candidate of every packaged workload
        completes with the cut armed, bit-identically."""
        checked = 0
        for name in PACKAGED_WORKLOADS:
            pipeline, trace, profile, candidates = _quick_space(name)
            for index, config in enumerate(candidates):
                exact = _exact_replay(name, index)
                if exact is None:
                    continue
                ms, cycles, _ = exact
                cut_ms, cut_cycles, _ = _replay_config(
                    pipeline, K20C, trace, config,
                    deadline_cycles=cycles, profile=profile,
                )
                assert (cut_ms, cut_cycles) == (ms, cycles), (
                    name, config.describe()
                )
                checked += 1
        assert checked == 24 * len(PACKAGED_WORKLOADS)

    def test_half_deadline_stops_before_the_clock_gets_there(self):
        """Effect: on cfd, every candidate replayed under half its own
        time is stopped by the cut while the engine clock is still at
        or below the deadline (a plain deadline stop is always past
        it)."""
        pipeline, trace, profile, candidates = _quick_space("cfd")
        stopped = 0
        for index, config in enumerate(candidates):
            exact = _exact_replay("cfd", index)
            if exact is None:
                continue
            deadline = exact[1] / 2
            with pytest.raises(DeadlineExceeded) as excinfo:
                _replay_config(
                    pipeline, K20C, trace, config,
                    deadline_cycles=deadline, profile=profile,
                )
            assert excinfo.value.stopped_at <= deadline, config.describe()
            with pytest.raises(DeadlineExceeded) as uncut:
                _replay_config(
                    pipeline, K20C, trace, config, deadline_cycles=deadline
                )
            assert uncut.value.stopped_at > deadline
            stopped += 1
        assert stopped == len(candidates)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(PACKAGED_WORKLOADS),
        index=st.integers(min_value=0, max_value=23),
        factor=st.floats(min_value=0.3, max_value=1.5),
    )
    def test_cut_never_changes_an_outcome(self, name, index, factor):
        """Property: under any deadline, the replays with and without
        the cut both raise ``DeadlineExceeded`` or both return the same
        ``(ms, cycles, pressure)``."""
        pipeline, trace, profile, candidates = _quick_space(name)
        index %= len(candidates)
        exact = _exact_replay(name, index)
        if exact is None:
            return
        deadline = exact[1] * factor
        outcomes = []
        for armed in (None, profile):
            try:
                outcomes.append(
                    _replay_config(
                        pipeline, K20C, trace, candidates[index],
                        deadline_cycles=deadline, profile=armed,
                    )
                )
            except DeadlineExceeded:
                outcomes.append("deadline")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "deadline") == (exact[1] > deadline)


def _payload_bytes(report):
    return json.dumps(report.canonical_payload(), sort_keys=True)


class TestCanonicalDeterminism:
    """The merged report is a pure function of the candidate space."""

    def test_payload_byte_identical_across_worker_counts(self):
        reports = [_make_tuner(workers=w).tune() for w in (1, 2, 4)]
        reference = _payload_bytes(reports[0])
        for report in reports[1:]:
            assert _payload_bytes(report) == reference

    def test_forced_timeout_candidate_is_canonical(self):
        """The toy space forces slow candidates past the deadline; their
        classification must not depend on the worker count."""
        seq = _make_tuner(workers=1).tune()
        par = _make_tuner(workers=4).tune()
        assert seq.num_timeout > 0
        assert [e.outcome for e in seq.evaluated] == [
            e.outcome for e in par.evaluated
        ]


class TestExhaustiveVsRaced:
    """Acceptance pin: the race to the deadline, with both halves of the
    dominance cut, picks the winner of an exhaustive deadline-free
    replay of every candidate, on every workload.  On rasterization's
    80-candidate space the prefix-racing rung the search once had cut
    the true winner (it returned 0.3472 ms against 0.3435 ms)."""

    @pytest.mark.parametrize(
        "name, budget",
        [pytest.param(name, 24, id=name) for name in PACKAGED_WORKLOADS]
        + [pytest.param("rasterization", 80, id="rasterization-80")],
    )
    def test_raced_best_matches_exhaustive(self, name, budget):
        pipeline, trace, profile, candidates = _quick_space(name, budget)
        raced = OfflineTuner(
            pipeline, K20C, trace, profile=profile,
            options=TunerOptions(max_configs=budget, workers=1),
        ).tune()
        exhaustive = [
            (exact[0], index)
            for index in range(len(candidates))
            if (exact := _exact_replay(name, index, budget)) is not None
        ]
        best_ms, best_index = min(exhaustive)
        assert raced.best_time_ms == best_ms
        assert raced.best_config == replace(
            candidates[best_index], online_adaptation=True
        )


class TestSharedBest:
    def _slot(self):
        slot = SharedBest.create()
        if slot is None:
            pytest.skip("shared memory unavailable on this platform")
        return slot

    def test_publish_monotone(self):
        slot = self._slot()
        try:
            assert slot.read() == math.inf
            slot.publish(5.0)
            assert slot.read() == 5.0
            slot.publish(7.0)  # worse: ignored
            assert slot.read() == 5.0
            slot.publish(3.0)
            assert slot.read() == 3.0
            slot.publish(-1.0)  # nonsense: ignored
            assert slot.read() == 3.0
        finally:
            slot.release()

    def test_corrupt_slot_reads_inf_and_heals(self):
        slot = self._slot()
        try:
            slot.publish(5.0)
            slot._segment.buf[:] = b"\xff" * len(slot._segment.buf)
            assert slot.read() == math.inf  # checksum mismatch
            slot.publish(4.0)  # any publish heals the slot
            assert slot.read() == 4.0
        finally:
            slot.release()

    def test_pickles_by_name(self):
        slot = self._slot()
        try:
            slot.publish(2.5)
            clone = pickle.loads(pickle.dumps(slot))
            assert clone.read() == 2.5
            clone.publish(1.5)
            assert slot.read() == 1.5
            clone.close()
        finally:
            slot.release()

    def test_released_slot_reads_inf(self):
        slot = self._slot()
        name = slot.name
        slot.publish(2.0)
        slot.release()
        orphan = SharedBest(name)
        assert orphan.read() == math.inf

    def test_corrupted_shared_value_falls_back_to_local(self):
        """A shard racing against a corrupted shared slot must produce
        exactly the records of a shard with no shared bound at all."""
        tuner = _make_tuner(workers=1, budget=12)
        candidates = list(enumerate(tuner.candidates()))
        base = _SearchPayload(
            pipeline=tuner.pipeline,
            spec=tuner.spec,
            trace=tuner.trace,
            profile=tuner.profile,
            options=tuner.options,
        )
        clean = _evaluate_shard(base, candidates)
        slot = self._slot()
        try:
            slot._segment.buf[:] = b"\xff" * len(slot._segment.buf)
            corrupted = _SearchPayload(
                pipeline=tuner.pipeline,
                spec=tuner.spec,
                trace=tuner.trace,
                profile=tuner.profile,
                options=tuner.options,
                shared_best=slot,
            )
            raced = _evaluate_shard(corrupted, candidates)
        finally:
            slot.release()
        assert [
            (r.index, r.time_ms, r.note) for r in clean.records
        ] == [(r.index, r.time_ms, r.note) for r in raced.records]
